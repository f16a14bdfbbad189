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
/// labeling may be null when no pure analyses ran).
GuardSolution solveGuard(Direction Dir, const Guard &Gd, const ir::Cfg &G,
                         const LabelRegistry &Registry,
                         const Labeling *AnalysisLabeling);

} // namespace engine
} // namespace cobalt

#endif // COBALT_ENGINE_DATAFLOW_H
