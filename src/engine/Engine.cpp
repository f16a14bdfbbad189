//===- Engine.cpp ---------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "core/Match.h"
#include "ir/Cfg.h"
#include "support/Errors.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <cassert>
#include <set>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

std::vector<MatchSite> engine::computeDelta(const TransformationPattern &Pat,
                                            const Procedure &P,
                                            const LabelRegistry &Registry,
                                            const Labeling *AnalysisLabeling,
                                            RunStats *Stats) {
  // Sites first. A fact reaches Δ at ι only if it extends to a match of
  // s against stmt(ι), so it agrees with ι's site binding; the solve is
  // seeded with the distinct site bindings projected onto ψ1's free
  // variables (Dataflow.h), and a pass with no site needs no solve.
  std::vector<std::pair<std::string, MetaKind>> Psi1Frees;
  collectFreeMetas(*Pat.G.Psi1, Psi1Frees);
  std::vector<std::pair<int, Substitution>> Sites;
  std::set<Substitution> Seeds;
  for (int I = 0; I < P.size(); ++I) {
    Substitution Site;
    if (!matchStmt(Pat.From, P.stmtAt(I), Site))
      continue;
    Substitution Seed;
    for (const auto &Free : Psi1Frees)
      if (const Binding *B = Site.lookup(Free.first))
        Seed.bind(Free.first, *B);
    Seeds.insert(std::move(Seed));
    Sites.emplace_back(I, std::move(Site));
  }
  if (Sites.empty()) {
    support::metricAdd("engine.passes_unmatched");
    if (Stats)
      Stats->DeltaSize = Stats->FixpointIters = 0;
    return {};
  }

  Cfg G(P);
  GuardSolution Sol =
      solveGuard(Pat.Dir, Pat.G, G, Registry, AnalysisLabeling, Seeds);

  // Matching s is deterministic, so θ extends to a match of s at ι
  // exactly when it agrees with ι's site binding, and the match is their
  // union.
  std::vector<MatchSite> Delta;
  for (const auto &[I, Site] : Sites) {
    std::set<Substitution> Seen;
    for (const Substitution &Theta : Sol.AtNode[I]) {
      Substitution Extended = Site;
      if (!Extended.merge(Theta))
        continue;
      if (Seen.insert(Extended).second)
        Delta.push_back({I, Extended});
    }
  }
  if (Stats) {
    Stats->DeltaSize = static_cast<unsigned>(Delta.size());
    Stats->FixpointIters = Sol.Iterations;
  }
  return Delta;
}

unsigned engine::applySites(const Stmt &To, Procedure &P,
                            const std::vector<MatchSite> &Sites,
                            std::vector<int> *AppliedIndexOut) {
  std::set<int> Rewritten;
  unsigned Count = 0;
  for (const MatchSite &Site : Sites) {
    assert(P.isValidIndex(Site.Index) && "transformation site out of range");
    if (!Rewritten.insert(Site.Index).second)
      continue; // footnote 4: one winner per index
    auto NewStmt = applySubst(To, Site.Theta);
    if (!NewStmt)
      continue; // uninstantiable site (malformed choose output)
    if (*NewStmt == P.Stmts[Site.Index])
      continue; // already in the target form; not a change
    P.Stmts[Site.Index] = std::move(*NewStmt);
    ++Count;
    if (AppliedIndexOut)
      AppliedIndexOut->push_back(Site.Index);
    // Fault-injection point: die with the rewrite half-applied. This is
    // the worst-case engine failure (a partially transformed procedure)
    // and is what the transactional pass manager's snapshot/rollback is
    // proven against.
    if (support::faultFires(support::faults::EngineThrowMidRewrite))
      throw support::PassError(
          support::ErrorKind::EK_PassPanic,
          "injected engine fault: exception after rewriting statement " +
              std::to_string(Site.Index) + " of '" + P.Name + "'");
  }
  return Count;
}

RunStats engine::runOptimization(const Optimization &O, Procedure &P,
                                 const LabelRegistry &Registry,
                                 const Labeling *AnalysisLabeling) {
  RunStats Stats;
  std::vector<MatchSite> Delta =
      computeDelta(O.Pat, P, Registry, AnalysisLabeling, &Stats);

  // choose(Δ, p) ∩ Δ — the intersection guards against a profitability
  // heuristic inventing sites, which would break the soundness argument
  // (Definition 2 takes the intersection for exactly this reason).
  std::vector<MatchSite> Chosen = O.Choose(Delta, P);
  std::set<MatchSite> Legal(Delta.begin(), Delta.end());
  std::vector<MatchSite> ToApply;
  for (MatchSite &Site : Chosen)
    if (Legal.count(Site))
      ToApply.push_back(std::move(Site));

  Stats.AppliedCount = applySites(O.Pat.To, P, ToApply,
                                  &Stats.AppliedSites);

  // Legal sites that did not result in a rewrite — the remarks stream's
  // "missed" set. Δ is index-sorted, so this comes out sorted and
  // deduplicated without further work.
  std::set<int> Applied(Stats.AppliedSites.begin(),
                        Stats.AppliedSites.end());
  for (const MatchSite &Site : Delta)
    if (!Applied.count(Site.Index) &&
        (Stats.MissedSites.empty() ||
         Stats.MissedSites.back() != Site.Index))
      Stats.MissedSites.push_back(Site.Index);
  return Stats;
}

void engine::runPureAnalysis(const PureAnalysis &A, const Procedure &P,
                             const LabelRegistry &Registry, Labeling &InOut,
                             RunStats *Stats) {
  if (InOut.empty())
    InOut.resize(P.size());
  assert(InOut.size() == static_cast<size_t>(P.size()) &&
         "labeling sized for a different procedure");

  Cfg G(P);
  // The analysis may consult labels produced by earlier analyses: pass
  // the current labeling while solving (forward analyses compose with
  // forward analyses; see §4.1).
  GuardSolution Sol =
      solveGuard(Direction::D_Forward, A.G, G, Registry, &InOut);

  unsigned Added = 0;
  Universe Univ = buildUniverse(P);
  for (int I = 0; I < P.size(); ++I) {
    NodeContext Ctx{&P, I, &Registry, &InOut, &Univ};
    for (const Substitution &Theta : Sol.AtNode[I]) {
      GroundLabel L;
      L.Name = A.LabelName;
      bool Ok = true;
      for (const Term &T : A.LabelArgs) {
        auto B = termToBinding(T, Ctx, Theta);
        if (!B) {
          Ok = false;
          break;
        }
        L.Args.push_back(std::move(*B));
      }
      if (Ok && InOut[I].insert(std::move(L)).second)
        ++Added;
    }
  }
  if (Stats) {
    Stats->DeltaSize = Added;
    Stats->FixpointIters = Sol.Iterations;
  }
}
