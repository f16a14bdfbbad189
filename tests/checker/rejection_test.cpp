//===- rejection_test.cpp - Buggy variants are rejected (E2) --------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E2 ("debugging benefit", §6): every deliberately broken
/// optimization variant must fail its soundness check, and the failing
/// obligation must localize the bug. A rejection is a Failed (Z3 found a
/// counterexample state) or an Unknown (conservatively rejected) — both
/// keep the unsound pass out of the compiler; the TCB never grows.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"

#include "checker/Obligations.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

class RejectionTest : public ::testing::TestWithParam<size_t> {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }
  LabelRegistry Registry;
};

TEST_P(RejectionTest, BuggyVariantIsRejectedAtTheRightObligation) {
  opts::BuggyCase Case = opts::allBuggyOptimizations()[GetParam()];
  for (const LabelDef &Def : Case.Opt.Labels)
    Registry.define(Def); // custom labels carried by the variant
  SoundnessChecker SC(Registry, opts::allAnalyses());
  // Rejections may surface as "unknown" when the counterexample needs a
  // model over quantified arrays; a short timeout keeps the suite fast
  // and a conservative checker treats unknown as rejection anyway.
  SC.setPolicy({.TimeoutMs = 4000});
  CheckReport R = SC.checkOptimization(Case.Opt);

  EXPECT_FALSE(R.Sound) << Case.Opt.Name
                        << " should have been rejected: "
                        << Case.Explanation;

  bool ExpectedObligationFailed = false;
  for (const ObligationResult &Ob : R.Obligations)
    if (!Ob.proven() &&
        Ob.Name.rfind(Case.FailingObligation, 0) == 0)
      ExpectedObligationFailed = true;
  EXPECT_TRUE(ExpectedObligationFailed)
      << Case.Opt.Name << ": expected a failure at "
      << Case.FailingObligation << "; got " << R.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllBuggyVariants, RejectionTest,
    ::testing::Range<size_t>(0, 10),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return cobalt::opts::allBuggyOptimizations()[Info.param].Opt.Name;
    });

TEST(RejectionAnalysisTest, BuggyTaintAnalysisIsRejected) {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  opts::BuggyAnalysisCase Case = opts::buggyTaintAnalysis();
  for (const LabelDef &Def : Case.Analysis.Labels)
    Registry.define(Def);
  SoundnessChecker SC(Registry);
  SC.setPolicy({.TimeoutMs = 4000});
  CheckReport R = SC.checkAnalysis(Case.Analysis);
  EXPECT_FALSE(R.Sound) << Case.Explanation;
  bool ExpectedObligationFailed = false;
  for (const ObligationResult &Ob : R.Obligations)
    if (!Ob.proven() && Ob.Name.rfind(Case.FailingObligation, 0) == 0)
      ExpectedObligationFailed = true;
  EXPECT_TRUE(ExpectedObligationFailed) << R.str();
}

TEST(RejectionDetailTest, CounterexampleContextIsProducedWhenSat) {
  // At least some rejections should come back as genuine sat results
  // with a model (the §7 "counterexample context"). Collect across the
  // suite and require one.
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  SoundnessChecker SC(Registry, opts::allAnalyses());
  SC.setPolicy({.TimeoutMs = 4000});
  bool SawModel = false;
  for (const opts::BuggyCase &Case : opts::allBuggyOptimizations()) {
    for (const LabelDef &Def : Case.Opt.Labels)
      Registry.define(Def);
    CheckReport R = SC.checkOptimization(Case.Opt);
    for (const ObligationResult &Ob : R.Obligations)
      if (Ob.St == ObligationResult::Status::OS_Failed &&
          !Ob.Counterexample.empty())
        SawModel = true;
    if (SawModel)
      break;
  }
  EXPECT_TRUE(SawModel);
}

TEST(RejectionDetailTest, FixedVersionsOfEveryBuggyVariantAreSound) {
  // The pairing that makes E2 meaningful: each bug has a shipped, fixed
  // counterpart that *is* proven sound (checked exhaustively in
  // soundness_test; spot-check the two §6-style stars here).
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  SoundnessChecker SC(Registry, opts::allAnalyses());
  EXPECT_TRUE(SC.checkOptimization(opts::loadCse()).Sound);
  EXPECT_TRUE(SC.checkOptimization(opts::storeForward()).Sound);
}

/// E2 under a schedule that machine load cannot move: only a Z3 rlimit
/// ends an attempt (the wall-clock timeout is a 30 s backstop), and there
/// are no retries. Every buggy variant must end Unsound or Unproven with
/// its first unproven obligation at the documented one, and the reports
/// (status, attempts, rlimit spend, counterexample) must repeat byte for
/// byte across runs and between no pool and four lanes. That pins the
/// proof and counterexample searches, models included, to the solver
/// rather than to the clock, which the 4 s tests above cannot do.
TEST(RejectionRLimitTest, VerdictsAndModelsRepeatExactly) {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  std::vector<opts::BuggyCase> Cases = opts::allBuggyOptimizations();
  for (const opts::BuggyCase &Case : Cases)
    for (const LabelDef &Def : Case.Opt.Labels)
      Registry.define(Def);
  opts::BuggyAnalysisCase Taint = opts::buggyTaintAnalysis();
  for (const LabelDef &Def : Taint.Analysis.Labels)
    Registry.define(Def);

  ProverPolicy Policy;
  Policy.TimeoutMs = 30000;
  Policy.InitialTimeoutMs = 30000;
  Policy.Retries = 0;
  // About 28x the largest spend of an obligation these variants prove
  // (17,939): every decided verdict is far from the cap.
  Policy.RLimit = 500000;

  // The variants are checked against the shipped analyses and the buggy
  // taint analysis against none, as the tests above check them.
  auto Round = [&](support::ThreadPool *Pool) {
    SoundnessChecker Opts(Registry, opts::allAnalyses());
    Opts.setPolicy(Policy);
    Opts.setThreadPool(Pool);
    std::vector<ObligationSet> Sets;
    for (const opts::BuggyCase &Case : Cases) {
      Sets.push_back(
          Opts.lower(Case.Opt, Opts.fingerprintOptimization(Case.Opt)));
      Sets.back().Cacheable = false;
    }
    std::vector<CheckReport> Reports = Opts.checkObligationSets(Sets);

    SoundnessChecker Analyses(Registry);
    Analyses.setPolicy(Policy);
    Analyses.setThreadPool(Pool);
    ObligationSet Set = Analyses.lower(
        Taint.Analysis, Analyses.fingerprintAnalysis(Taint.Analysis));
    Set.Cacheable = false;
    Reports.push_back(Analyses.checkObligationSets({Set}).front());
    return Reports;
  };

  auto Serialize = [](const std::vector<CheckReport> &Reports) {
    std::string Out;
    for (const CheckReport &R : Reports)
      Out += serializeCheckReport(R) + "---\n";
    return Out;
  };

  std::vector<CheckReport> First = Round(nullptr);
  ASSERT_EQ(First.size(), Cases.size() + 1);
  for (size_t I = 0; I < First.size(); ++I) {
    const CheckReport &R = First[I];
    const std::string &Expected = I < Cases.size()
                                      ? Cases[I].FailingObligation
                                      : Taint.FailingObligation;
    EXPECT_TRUE(R.unsound() || R.V == CheckReport::Verdict::V_Unproven)
        << R.str();
    std::string FirstUnproven;
    for (const ObligationResult &Ob : R.Obligations)
      if (!Ob.proven()) {
        FirstUnproven = Ob.Name;
        break;
      }
    EXPECT_EQ(FirstUnproven.rfind(Expected, 0), 0u)
        << R.Name << ": expected the first unproven obligation at "
        << Expected << "; got " << R.str();
  }

  const std::string Serialized = Serialize(First);
  EXPECT_EQ(Serialize(Round(nullptr)), Serialized);
  support::ThreadPool Pool(4);
  EXPECT_EQ(Serialize(Round(&Pool)), Serialized);
}

} // namespace
