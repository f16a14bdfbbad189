//===- soundness_test.cpp - Every shipped pass is proven sound ------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E1: the paper reports automatically proving a dozen
/// optimizations and analyses sound (§5.1). Here every optimization in
/// the suite (16) plus the taint analysis must be proven, each obligation
/// discharged by Z3. These tests are the project's core guarantee: a
/// regression here means a pass became unprovable (or unsound).
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"

#include "checker/Obligations.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

class SoundnessTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }

  void expectSound(const Optimization &O) {
    SoundnessChecker SC(Registry, opts::allAnalyses());
    SC.setPolicy({.TimeoutMs = 30000});
    CheckReport R = SC.checkOptimization(O);
    EXPECT_TRUE(R.Sound) << R.str();
    for (const ObligationResult &Ob : R.Obligations)
      EXPECT_TRUE(Ob.proven())
          << O.Name << "/" << Ob.Name << ": " << Ob.Counterexample;
  }

  LabelRegistry Registry;
};

TEST_F(SoundnessTest, TaintAnalysis) {
  SoundnessChecker SC(Registry);
  CheckReport R = SC.checkAnalysis(opts::taintAnalysis());
  EXPECT_TRUE(R.Sound) << R.str();
}

TEST_F(SoundnessTest, ConstProp) { expectSound(opts::constProp()); }
TEST_F(SoundnessTest, ConstPropFold) { expectSound(opts::constPropFold()); }
TEST_F(SoundnessTest, ConstPropPrecise) {
  expectSound(opts::constPropPrecise());
}
TEST_F(SoundnessTest, CopyProp) { expectSound(opts::copyProp()); }
TEST_F(SoundnessTest, ConstFoldAdd) { expectSound(opts::constFoldAdd()); }
TEST_F(SoundnessTest, ConstFoldMul) { expectSound(opts::constFoldMul()); }
TEST_F(SoundnessTest, SimplifyAddZero) {
  expectSound(opts::simplifyAddZero());
}
TEST_F(SoundnessTest, SimplifyMulOne) {
  expectSound(opts::simplifyMulOne());
}
TEST_F(SoundnessTest, SimplifyMulZero) {
  expectSound(opts::simplifyMulZero());
}
TEST_F(SoundnessTest, SimplifySubSelf) {
  expectSound(opts::simplifySubSelf());
}
TEST_F(SoundnessTest, Cse) { expectSound(opts::cse()); }
TEST_F(SoundnessTest, StoreForward) { expectSound(opts::storeForward()); }
TEST_F(SoundnessTest, LoadCse) { expectSound(opts::loadCse()); }
TEST_F(SoundnessTest, BranchFold) { expectSound(opts::branchFold()); }
TEST_F(SoundnessTest, BranchTaken) { expectSound(opts::branchTaken()); }
TEST_F(SoundnessTest, BranchNotTaken) {
  expectSound(opts::branchNotTaken());
}
TEST_F(SoundnessTest, DeadAssignElim) {
  expectSound(opts::deadAssignElim());
}
TEST_F(SoundnessTest, SelfAssignRemoval) {
  expectSound(opts::selfAssignRemoval());
}
TEST_F(SoundnessTest, RedundantBranchElim) {
  expectSound(opts::redundantBranchElim());
}
TEST_F(SoundnessTest, PreDuplicate) { expectSound(opts::preDuplicate()); }

TEST_F(SoundnessTest, AnalysisDependenciesAreReported) {
  SoundnessChecker SC(Registry, opts::allAnalyses());
  CheckReport R = SC.checkOptimization(opts::constPropPrecise());
  ASSERT_EQ(R.AssumedAnalyses.size(), 1u);
  EXPECT_EQ(R.AssumedAnalyses[0], "taint_analysis");

  CheckReport R2 = SC.checkOptimization(opts::constProp());
  EXPECT_TRUE(R2.AssumedAnalyses.empty());
}

std::vector<std::string> obligationNames(const CheckReport &R) {
  std::vector<std::string> Names;
  for (const ObligationResult &Ob : R.Obligations)
    Names.push_back(Ob.Name);
  return Names;
}

TEST_F(SoundnessTest, ObligationCountsMatchDirection) {
  // Names and their order are part of the contract: they key the fault
  // decisions and appear verbatim in reports and cache entries.
  SoundnessChecker SC(Registry, opts::allAnalyses());
  // Forward: F1/F2 split over 7 statement kinds + F3.
  CheckReport F = SC.checkOptimization(opts::constProp());
  EXPECT_EQ(F.Obligations.size(), 15u);
  EXPECT_EQ(obligationNames(F),
            (std::vector<std::string>{
                "F1[decl]", "F1[skip]", "F1[assign]", "F1[new]",
                "F1[call]", "F1[branch]", "F1[return]", "F2[decl]",
                "F2[skip]", "F2[assign]", "F2[new]", "F2[call]",
                "F2[branch]", "F2[return]", "F3"}));
  // Backward non-insertion: B1 + B2/B3 split + B4 + B5.
  CheckReport B = SC.checkOptimization(opts::deadAssignElim());
  EXPECT_EQ(B.Obligations.size(), 17u);
  EXPECT_EQ(obligationNames(B),
            (std::vector<std::string>{
                "B1", "B2[decl]", "B2[skip]", "B2[assign]", "B2[new]",
                "B2[call]", "B2[branch]", "B2[return]", "B3[decl]",
                "B3[skip]", "B3[assign]", "B3[new]", "B3[call]",
                "B3[branch]", "B3[return]", "B4", "B5"}));
  // Backward insertion: B4 replaced by I1/I2 (split).
  CheckReport I = SC.checkOptimization(opts::preDuplicate());
  EXPECT_EQ(I.Obligations.size(), 30u);
  EXPECT_EQ(obligationNames(I),
            (std::vector<std::string>{
                "B1",        "B2[decl]",   "B2[skip]",   "B2[assign]",
                "B2[new]",   "B2[call]",   "B2[branch]", "B2[return]",
                "B3[decl]",  "B3[skip]",   "B3[assign]", "B3[new]",
                "B3[call]",  "B3[branch]", "B3[return]", "I1[decl]",
                "I1[skip]",  "I1[assign]", "I1[new]",    "I1[call]",
                "I1[branch]", "I1[return]", "I2[decl]",  "I2[skip]",
                "I2[assign]", "I2[new]",   "I2[call]",   "I2[branch]",
                "I2[return]", "B5"}));
  // Pure analysis: F1/F2 over its label's witness, no F3.
  CheckReport A = SC.checkAnalysis(opts::taintAnalysis());
  EXPECT_EQ(obligationNames(A),
            (std::vector<std::string>{
                "F1[decl]", "F1[skip]", "F1[assign]", "F1[new]",
                "F1[call]", "F1[branch]", "F1[return]", "F2[decl]",
                "F2[skip]", "F2[assign]", "F2[new]", "F2[call]",
                "F2[branch]", "F2[return]"}));
}

TEST_F(SoundnessTest, AnalysisLabelTableLeavesTheAnalysisOut) {
  // An analysis may assume every other analysis's label, never its own:
  // offering notTainted's witness to taint_analysis's own F1/F2 would
  // let it assume what it is proving.
  SoundnessChecker SC(Registry, opts::allAnalyses());
  PureAnalysis Taint = opts::taintAnalysis();
  ObligationSet A = SC.lower(Taint, SC.fingerprintAnalysis(Taint));
  ASSERT_TRUE(A.Labels);
  EXPECT_EQ(A.Labels->count("notTainted"), 0u);
  EXPECT_TRUE(A.AssumedAnalyses.empty());
  EXPECT_EQ(A.Obligations.size(), 14u);

  // An optimization is offered every analysis, and its set records the
  // ones its guard relies on.
  Optimization Precise = opts::constPropPrecise();
  ObligationSet O = SC.lower(Precise, SC.fingerprintOptimization(Precise));
  ASSERT_TRUE(O.Labels);
  ASSERT_EQ(O.Labels->count("notTainted"), 1u);
  EXPECT_EQ(O.Labels->at("notTainted")->Name, "taint_analysis");
  EXPECT_EQ(O.AssumedAnalyses, std::vector<std::string>{"taint_analysis"});
  EXPECT_TRUE(O.Cacheable);
  EXPECT_EQ(O.Fingerprint, SC.fingerprintOptimization(Precise));
}

TEST_F(SoundnessTest, ReportStringMentionsVerdict) {
  SoundnessChecker SC(Registry, opts::allAnalyses());
  CheckReport R = SC.checkOptimization(opts::constProp());
  EXPECT_NE(R.str().find("SOUND"), std::string::npos);
  EXPECT_NE(R.str().find("F3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Prover resilience: timeouts and unknowns are degradation (Unproven),
// never confused with a genuine counterexample (Unsound), and never a
// crash. Faults are injected via support/FaultInjection.h.
//===----------------------------------------------------------------------===//

TEST_F(SoundnessTest, ForcedTimeoutYieldsUnprovenNotUnsound) {
  support::ScopedFaultPlan Plan(support::faults::CheckerForceTimeout);
  SoundnessChecker SC(Registry, opts::allAnalyses());
  CheckReport R = SC.checkOptimization(opts::constProp());

  EXPECT_FALSE(R.Sound);
  EXPECT_EQ(R.V, CheckReport::Verdict::V_Unproven);
  EXPECT_FALSE(R.unsound());
  EXPECT_TRUE(R.degraded());
  EXPECT_EQ(R.Degradation, support::ErrorKind::EK_ProverTimeout);
  EXPECT_NE(R.str().find("NOT PROVEN"), std::string::npos) << R.str();

  for (const ObligationResult &Ob : R.Obligations) {
    // A timeout is not a counterexample: no obligation may claim the
    // definition is wrong, and no counterexample text may be attached.
    EXPECT_NE(Ob.St, ObligationResult::Status::OS_Failed) << Ob.Name;
    ASSERT_TRUE(Ob.unknown()) << Ob.Name;
    EXPECT_EQ(Ob.Err.Kind, support::ErrorKind::EK_ProverTimeout) << Ob.Name;
    EXPECT_TRUE(Ob.Counterexample.empty()) << Ob.Counterexample;
    EXPECT_FALSE(Ob.Err.Message.empty()) << Ob.Name;
    // Every configured attempt was made before giving up.
    EXPECT_EQ(Ob.Attempts, SC.policy().Retries + 1) << Ob.Name;
  }
}

TEST_F(SoundnessTest, RetryEscalationRecoversFromTransientTimeout) {
  // Each obligation's first solver attempt faults (@N ordinals are
  // per-obligation-job, not arrival-ordered, so the plan is independent
  // of scheduling); the escalating retry must recover on every one and
  // still prove the optimization sound.
  support::ScopedFaultPlan Plan(
      std::string(support::faults::CheckerForceTimeout) + "@1");
  SoundnessChecker SC(Registry, opts::allAnalyses());
  CheckReport R = SC.checkOptimization(opts::constProp());

  EXPECT_TRUE(R.Sound) << R.str();
  for (const ObligationResult &Ob : R.Obligations) {
    EXPECT_TRUE(Ob.proven()) << Ob.Name;
    // First attempt timed out (injected), second succeeded.
    EXPECT_EQ(Ob.Attempts, 2u) << Ob.Name;
  }
}

TEST_F(SoundnessTest, UnknownIsDistinctFromCounterexample) {
  // The two non-proven outcomes must be distinguishable by callers: a
  // prover unknown carries a degradation kind and no counterexample ...
  {
    support::ScopedFaultPlan Plan(support::faults::CheckerForceUnknown);
    SoundnessChecker SC(Registry, opts::allAnalyses());
    CheckReport R = SC.checkOptimization(opts::constProp());
    EXPECT_EQ(R.V, CheckReport::Verdict::V_Unproven);
    EXPECT_EQ(R.Degradation, support::ErrorKind::EK_ProverUnknown);
    for (const ObligationResult &Ob : R.Obligations) {
      ASSERT_TRUE(Ob.unknown()) << Ob.Name;
      EXPECT_TRUE(Ob.Counterexample.empty());
    }
  }
  // ... while a genuine unsoundness carries a counterexample model and
  // no degradation kind.
  {
    SoundnessChecker SC(Registry, opts::allAnalyses());
    CheckReport R = SC.checkOptimization(opts::constPropNoGuard().Opt);
    EXPECT_EQ(R.V, CheckReport::Verdict::V_Unsound);
    EXPECT_TRUE(R.unsound());
    EXPECT_FALSE(R.degraded());
    bool SawCounterexample = false;
    for (const ObligationResult &Ob : R.Obligations)
      if (Ob.St == ObligationResult::Status::OS_Failed) {
        EXPECT_FALSE(Ob.Counterexample.empty()) << Ob.Name;
        EXPECT_EQ(Ob.Err.Kind, support::ErrorKind::EK_None);
        SawCounterexample = true;
      }
    EXPECT_TRUE(SawCounterexample) << R.str();
  }
}

TEST_F(SoundnessTest, VerdictCacheServesRepeatChecks) {
  SoundnessChecker SC(Registry, opts::allAnalyses());
  CheckReport First = SC.checkOptimization(opts::constProp());
  EXPECT_FALSE(First.CacheHit);
  ASSERT_TRUE(First.Sound);

  CheckReport Second = SC.checkOptimization(opts::constProp());
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Second.V, First.V);
  EXPECT_EQ(Second.Obligations.size(), First.Obligations.size());
  EXPECT_EQ(Second.TotalSeconds, 0.0);

  SoundnessChecker Fresh(Registry, opts::allAnalyses());
  CheckReport Third = Fresh.checkOptimization(opts::constProp());
  EXPECT_FALSE(Third.CacheHit);
}

TEST_F(SoundnessTest, UnprovenVerdictsAreNeverCached) {
  // An Unproven verdict reflects transient resource limits; once the
  // fault clears, re-checking must reach the prover again and succeed.
  SoundnessChecker SC(Registry, opts::allAnalyses());
  {
    support::ScopedFaultPlan Plan(support::faults::CheckerForceTimeout);
    CheckReport R = SC.checkOptimization(opts::constProp());
    EXPECT_EQ(R.V, CheckReport::Verdict::V_Unproven);
  }
  CheckReport Retry = SC.checkOptimization(opts::constProp());
  EXPECT_FALSE(Retry.CacheHit);
  EXPECT_TRUE(Retry.Sound) << Retry.str();
}

TEST_F(SoundnessTest, ExhaustedBudgetReportsUnprovenWithoutCrashing) {
  SoundnessChecker SC(Registry, opts::allAnalyses());
  ProverPolicy Policy;
  Policy.BudgetMs = 1; // far less than 30 obligations need
  SC.setPolicy(Policy);
  CheckReport R = SC.checkOptimization(opts::preDuplicate());

  EXPECT_FALSE(R.Sound);
  EXPECT_EQ(R.V, CheckReport::Verdict::V_Unproven);
  // The first obligation runs under a 1 ms clamp and may classify as
  // timeout or generic unknown depending on how Z3 gives up; either way
  // the report must carry an infrastructure kind, not a counterexample.
  EXPECT_TRUE(support::isInfraError(R.Degradation)) << R.str();
  bool SawBudget = false;
  for (const ObligationResult &Ob : R.Obligations) {
    EXPECT_NE(Ob.St, ObligationResult::Status::OS_Failed) << Ob.Name;
    if (Ob.unknown() &&
        Ob.Err.Message.find("budget") != std::string::npos)
      SawBudget = true;
  }
  EXPECT_TRUE(SawBudget) << R.str();
}

} // namespace
