//===- bench_debugging.cpp - Experiment E2: accept vs reject --------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates the paper's §6 "debugging benefit" claim as a table: for
/// each buggy variant, the failing obligation (localizing the bug), the
/// rejection time, and whether the counterexample-search pass produced a
/// concrete counterexample context (§7); paired with the fixed version's
/// accept time. Several rows are bugs this reproduction's checker caught
/// in its *own* optimization suite during development.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <cstdio>

using namespace cobalt;
using namespace cobalt::checker;

int main() {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  for (const opts::BuggyCase &Case : opts::allBuggyOptimizations())
    for (const LabelDef &Def : Case.Opt.Labels)
      Registry.define(Def);

  SoundnessChecker SC(Registry, opts::allAnalyses());
  SC.setPolicy({.TimeoutMs = 4000});

  std::printf("E2: buggy variants rejected, with the failing obligation "
              "localizing the bug (paper 6)\n");
  std::printf("%-28s %-10s %-12s %8s  %s\n", "buggy variant", "verdict",
              "fails at", "time(s)", "counterexample?");

  unsigned Rejected = 0, WithModel = 0;
  auto Cases = opts::allBuggyOptimizations();
  for (const opts::BuggyCase &Case : Cases) {
    CheckReport R = SC.checkOptimization(Case.Opt);
    std::string FailAt = "-";
    bool Model = false;
    for (const ObligationResult &Ob : R.Obligations)
      if (!Ob.proven()) {
        if (FailAt == "-")
          FailAt = Ob.Name;
        if (Ob.St == ObligationResult::Status::OS_Failed)
          Model = true;
      }
    std::printf("%-28s %-10s %-12s %8.2f  %s\n", Case.Opt.Name.c_str(),
                R.Sound ? "ACCEPTED!" : "rejected", FailAt.c_str(),
                R.TotalSeconds, Model ? "yes (sat model)" : "no (unknown)");
    Rejected += !R.Sound;
    WithModel += Model;
  }

  {
    opts::BuggyAnalysisCase Case = opts::buggyTaintAnalysis();
    for (const LabelDef &Def : Case.Analysis.Labels)
      Registry.define(Def);
    SoundnessChecker SC2(Registry);
    SC2.setPolicy({.TimeoutMs = 4000});
    CheckReport R = SC2.checkAnalysis(Case.Analysis);
    std::string FailAt = "-";
    for (const ObligationResult &Ob : R.Obligations)
      if (!Ob.proven() && FailAt == "-")
        FailAt = Ob.Name;
    std::printf("%-28s %-10s %-12s %8.2f\n", Case.Analysis.Name.c_str(),
                R.Sound ? "ACCEPTED!" : "rejected", FailAt.c_str(),
                R.TotalSeconds);
    Rejected += !R.Sound;
  }

  std::printf("---\nrejected %u / %zu buggy variants; %u with a concrete "
              "counterexample context\n",
              Rejected, Cases.size() + 1, WithModel);

  // The fixed counterparts accept quickly — the asymmetry the paper's
  // workflow relies on (fast accept for correct passes, localized
  // rejection for broken ones).
  SoundnessChecker SC3(Registry, opts::allAnalyses());
  CheckReport Fixed = SC3.checkOptimization(opts::loadCse());
  std::printf("fixed load_cse (the paper's own bug story): %s in %.2f s\n",
              Fixed.Sound ? "SOUND" : "NOT-PROVEN", Fixed.TotalSeconds);
  return Rejected == Cases.size() + 1 ? 0 : 1;
}
