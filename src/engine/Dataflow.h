//===- Dataflow.h - Substitution-set dataflow for guards --------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's dataflow analysis (paper §5.2): facts are sets of
/// substitutions, each representing a potential witnessing region. The
/// flow function at a statement
///
/// * adds the substitutions that make ψ1 true at the statement
///   (generative satisfaction), and
/// * propagates an incoming substitution θ iff θ(ψ2) holds at the
///   statement, dropping it otherwise;
///
/// merge nodes intersect (the guard quantifies over *all* paths,
/// Definition 1). Backward guards run the same analysis over the reversed
/// CFG. The framework is a distributive gen/kill analysis, so the fixed
/// point equals the meet-over-paths solution that Definition 1 specifies;
/// tests/engine/guard_semantics_test.cpp checks this against a direct
/// path-enumeration oracle on acyclic CFGs.
///
/// This solver computes, for every node ι, the set of substitutions θ
/// with (ι, θ) ∈ [[ψ1 followed by ψ2]](p) — evaluating all "instances" of
/// the guard simultaneously, exactly as §5.2 describes.
///
/// GEN may be seeded: GEN(n) keeps only the facts that agree with one of
/// a set of seeds (bind none of its variables differently), which bind
/// only ψ1's free variables. The analysis is
/// separable per fact (OUT = GEN ∪ {θ ∈ IN : ψ2}, an ∩ meet, ψ2's
/// variables bound by ψ1), so no fact's presence depends on another's,
/// and the seeded solution is exactly the unseeded one restricted to
/// those facts. satisfyFormula returns exactly the extensions of its
/// seed, so the solver passes it the seeds restricted to the variables
/// it would otherwise enumerate over the universe on every path, and
/// filters its results against the full seeds. The single empty seed is
/// the unseeded solve; engine::computeDelta seeds with the site
/// bindings of s.
///
/// The universe U = ∪ GEN is known before the fixpoint starts, so each
/// substitution is interned once per solve into a dense id: its rank in
/// Substitution order. GEN, IN, OUT and the matching points are uint64_t
/// bitsets over U — the meet is a word-wise AND and the change test a
/// word compare — and ψ2 is decided once per (node, projection of θ onto
/// ψ2's free variables), its verdicts kept as per-node masks over U. The
/// std::set result is built once, after the fixed point, in id order.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_ENGINE_DATAFLOW_H
#define COBALT_ENGINE_DATAFLOW_H

#include "core/Formula.h"
#include "core/Optimization.h"
#include "ir/Cfg.h"

#include <set>
#include <vector>

namespace cobalt {
namespace engine {

/// The per-node result of guard solving: the substitutions valid at the
/// *matching point* of each node (the IN fact in guard direction).
/// Unreachable nodes (forward: from the entry; backward: to any exit)
/// have empty sets — the engine conservatively never transforms them.
/// The solver works on interned fact ids and fills AtNode once, from the
/// fixed point's IN bitsets, so the sets share no storage with it.
struct GuardSolution {
  std::vector<std::set<Substitution>> AtNode;

  /// Iteration count until the fixed point, for the benchmarks.
  unsigned Iterations = 0;
};

/// Solves [[ψ1 followed by ψ2]] (Dir == D_Forward) or
/// [[ψ1 preceded by ψ2]] (Dir == D_Backward) over \p G's procedure.
/// \p Registry and \p AnalysisLabeling supply label semantics (the
/// labeling may be null when no pure analyses ran). GEN keeps only the
/// facts that agree with one of \p Seeds, which must all bind the same
/// variables, all free in ψ1; the default, one empty seed, keeps every
/// fact.
GuardSolution solveGuard(Direction Dir, const Guard &Gd, const ir::Cfg &G,
                         const LabelRegistry &Registry,
                         const Labeling *AnalysisLabeling,
                         const std::set<Substitution> &Seeds = {
                             Substitution()});

} // namespace engine
} // namespace cobalt

#endif // COBALT_ENGINE_DATAFLOW_H
