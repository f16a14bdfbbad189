//===- Engine.h - Executing Cobalt optimizations and analyses ---*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine (paper §5.2): computes the legal-transformation
/// set Δ = [[O_pat]](p) of a transformation pattern, applies the subset
/// selected by the profitability heuristic (Definition 2), and runs pure
/// analyses to produce node labelings (§3.2.3). In the paper this is a
/// single generic dataflow pass inside the Whirlwind compiler; here it is
/// a library over our own IR (see DESIGN.md for the substitution note).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_ENGINE_ENGINE_H
#define COBALT_ENGINE_ENGINE_H

#include "core/Optimization.h"
#include "engine/Dataflow.h"
#include "ir/Ast.h"

#include <vector>

namespace cobalt {
namespace engine {

/// Statistics of one optimization run, consumed by tests and benches.
struct RunStats {
  unsigned DeltaSize = 0;     ///< |Δ| (legal transformations).
  unsigned AppliedCount = 0;  ///< |choose(Δ, p) ∩ Δ|.
  unsigned FixpointIters = 0; ///< Worklist iterations of the guard solve.
  /// Statement indices actually rewritten, in application order
  /// (deduplicated — one winner per index), and legal Δ indices that
  /// were *not* rewritten (choose declined, lost the per-index race, or
  /// the instantiation failed). Feed the optimization-remarks stream.
  std::vector<int> AppliedSites;
  std::vector<int> MissedSites;
};

/// Computes Δ = [[O_pat]](p): all (ι, θ) where the guard holds at ι and
/// θ extends to a match of s against stmtAt(p, ι). Results are sorted
/// (index, then substitution) for determinism. s is matched against
/// every statement first: with no match Δ is empty and no guard is
/// solved (counted as engine.passes_unmatched); otherwise the solve is
/// seeded with the distinct site bindings projected onto ψ1's free
/// variables, so it generates only facts some site can use. Δ equals
/// the unseeded solve's.
std::vector<MatchSite> computeDelta(const TransformationPattern &Pat,
                                    const ir::Procedure &P,
                                    const LabelRegistry &Registry,
                                    const Labeling *AnalysisLabeling,
                                    RunStats *Stats = nullptr);

/// app(s', p, Δ') of Definition 2: replaces stmtAt(ι) with θ(s') for each
/// (ι, θ) ∈ Δ'. When several sites share an index, the first kept (the
/// paper chooses nondeterministically; we pick the least substitution for
/// reproducibility). Sites whose instantiation fails are skipped.
/// Returns the number of statements rewritten; when \p AppliedIndexOut
/// is non-null the rewritten statement indices are appended to it in
/// application order.
unsigned applySites(const ir::Stmt &To, ir::Procedure &P,
                    const std::vector<MatchSite> &Sites,
                    std::vector<int> *AppliedIndexOut = nullptr);

/// Runs a complete optimization on one procedure (Definition 2):
/// Δ := [[O_pat]](p); app(s', p, choose(Δ, p) ∩ Δ).
RunStats runOptimization(const Optimization &O, ir::Procedure &P,
                         const LabelRegistry &Registry,
                         const Labeling *AnalysisLabeling);

/// Runs a pure analysis, returning the new labels it adds per node: for
/// each (ι, θ) in the guard's meaning, the node ι gains θ(label(args)).
/// The result is merged into \p InOut (which must be empty or sized to
/// the procedure).
void runPureAnalysis(const PureAnalysis &A, const ir::Procedure &P,
                     const LabelRegistry &Registry, Labeling &InOut,
                     RunStats *Stats = nullptr);

} // namespace engine
} // namespace cobalt

#endif // COBALT_ENGINE_ENGINE_H
