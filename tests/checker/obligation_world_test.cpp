//===- obligation_world_test.cpp - One Z3 world per obligation set --------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker proves a set's obligations in one Z3 world (a context, the
/// IL datatypes and a solver holding the operator axioms), each obligation
/// between push and pop. An obligation's solver history is therefore the
/// earlier obligations of its own set, and nothing else: these tests pin
/// the per-obligation reset, the world count, that reports do not depend
/// on the order the sets are dispatched in, and the retire rule (a world
/// survives only an obligation proven on its first attempt).
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"

#include "checker/Encoder.h"
#include "checker/Obligations.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

class ObligationWorldTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }

  /// The 21-definition suite lowered to uncached sets, analyses first.
  std::vector<ObligationSet> lowerSuite(const SoundnessChecker &SC) {
    std::vector<ObligationSet> Sets;
    for (const PureAnalysis &A : Analyses)
      Sets.push_back(SC.lower(A, SC.fingerprintAnalysis(A)));
    for (const Optimization &O : Optimizations)
      Sets.push_back(SC.lower(O, SC.fingerprintOptimization(O)));
    for (ObligationSet &Set : Sets)
      Set.Cacheable = false;
    return Sets;
  }

  static std::string serialize(const std::vector<CheckReport> &Reports) {
    std::string Out;
    for (const CheckReport &R : Reports)
      Out += serializeCheckReport(R) + "---\n";
    return Out;
  }

  LabelRegistry Registry;
  std::vector<PureAnalysis> Analyses = opts::allAnalyses();
  std::vector<Optimization> Optimizations = opts::allOptimizations();
};

TEST(ObligationWorldEncoderTest, ResetForgetsTheLastObligationsConstants) {
  z3::context C;
  Encoder Enc(C);
  z3::expr A = Enc.concreteVar("a");
  z3::expr B = Enc.concreteVar("b");
  z3::expr V = Enc.freshVar("v");
  Enc.resetObligation();

  // Fresh names restart, so an obligation encodes the same terms
  // whatever the world proved before it.
  EXPECT_TRUE(z3::eq(Enc.freshVar("v"), V));

  // The last obligation's concrete names are out of the distinctness
  // axioms; the next one's are in.
  z3::expr X = Enc.concreteVar("c");
  z3::expr Y = Enc.concreteVar("d");
  z3::solver Old(C);
  Enc.addDistinctnessAxioms(Old);
  Old.add(A == B);
  EXPECT_EQ(Old.check(), z3::sat);
  z3::solver New(C);
  Enc.addDistinctnessAxioms(New);
  New.add(X == Y);
  EXPECT_EQ(New.check(), z3::unsat);
}

TEST_F(ObligationWorldTest, SuiteBuildsOneWorldPerSetAndRetiresNone) {
  const size_t Definitions = Analyses.size() + Optimizations.size();
  ASSERT_EQ(Definitions, 21u);
  for (unsigned Jobs : {1u, 4u}) {
    support::Telemetry T;
    support::TelemetryScope Scope(&T);
    support::ThreadPool Pool(Jobs);
    SoundnessChecker SC(Registry, Analyses);
    SC.setThreadPool(&Pool);
    std::vector<CheckReport> Reports = SC.checkSuite(Analyses, Optimizations);
    ASSERT_EQ(Reports.size(), Definitions);
    for (const CheckReport &R : Reports)
      EXPECT_TRUE(R.Sound) << R.str();
    EXPECT_EQ(T.Metrics.counter("checker.worlds"), Definitions)
        << "jobs=" << Jobs;
    EXPECT_EQ(T.Metrics.counter("checker.worlds_retired"), 0u)
        << "jobs=" << Jobs;
  }
}

TEST_F(ObligationWorldTest, RejectedVariantRetiresItsWorld) {
  opts::BuggyCase Case = opts::constPropNoGuard();
  support::Telemetry T;
  support::TelemetryScope Scope(&T);
  SoundnessChecker SC(Registry, Analyses);
  SC.setPolicy({.TimeoutMs = 4000});
  CheckReport R = SC.checkOptimization(Case.Opt);
  EXPECT_TRUE(R.unsound()) << R.str();
  EXPECT_GE(T.Metrics.counter("checker.worlds_retired"), 1u);
}

TEST_F(ObligationWorldTest, ReportsDoNotDependOnSetOrder) {
  SoundnessChecker SC(Registry, Analyses);
  std::vector<ObligationSet> Sets = lowerSuite(SC);
  std::vector<CheckReport> Forward = SC.checkObligationSets(Sets);

  std::reverse(Sets.begin(), Sets.end());
  std::vector<CheckReport> Backward = SC.checkObligationSets(Sets);
  std::reverse(Backward.begin(), Backward.end());

  EXPECT_EQ(serialize(Backward), serialize(Forward));
}

TEST_F(ObligationWorldTest, ObligationsAfterAnExhaustedOneStartAFreshWorld) {
  // A deterministic rlimit cap exhausts some obligation k of cse's set.
  // The world retires after it, so the obligations behind k must read
  // exactly what they read as a set of their own: same status, same
  // rlimit spend.
  ProverPolicy Policy;
  Policy.TimeoutMs = 30000;
  Policy.InitialTimeoutMs = 30000;
  Policy.Retries = 0;
  Policy.RLimit = 12000;
  SoundnessChecker SC(Registry, Analyses);
  SC.setPolicy(Policy);

  Optimization Cse = opts::cse();
  ObligationSet Whole = SC.lower(Cse, SC.fingerprintOptimization(Cse));
  Whole.Cacheable = false;
  CheckReport All = SC.checkObligationSets({Whole}).front();

  size_t K = 0;
  while (K < All.Obligations.size() && All.Obligations[K].proven())
    ++K;
  ASSERT_LT(K + 1, All.Obligations.size())
      << "the cap should exhaust an obligation before the last: "
      << All.str();
  ASSERT_GT(K, 0u) << "the cap should let the first obligation pass";

  ObligationSet Tail = Whole;
  Tail.Name = "cse tail";
  Tail.Obligations.erase(Tail.Obligations.begin(),
                         Tail.Obligations.begin() + K + 1);
  CheckReport Alone = SC.checkObligationSets({Tail}).front();

  ASSERT_EQ(Alone.Obligations.size(), All.Obligations.size() - K - 1);
  bool SomeProven = false;
  for (size_t I = 0; I < Alone.Obligations.size(); ++I) {
    const ObligationResult &InSet = All.Obligations[K + 1 + I];
    const ObligationResult &OnItsOwn = Alone.Obligations[I];
    EXPECT_EQ(InSet.Name, OnItsOwn.Name);
    EXPECT_EQ(InSet.St, OnItsOwn.St) << InSet.Name;
    EXPECT_EQ(InSet.RlimitSpent, OnItsOwn.RlimitSpent) << InSet.Name;
    SomeProven |= InSet.proven();
  }
  EXPECT_TRUE(SomeProven) << All.str();
}

} // namespace
