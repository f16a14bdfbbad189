//===- witness_inference_test.cpp - Paper §7 witness inference ------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The §7 future-work item, implemented and evaluated: for forward
/// optimizations whose enabler is an assignment, the strongest
/// postcondition of the enabling statement is guessed as the witness and
/// the ordinary obligations verify it. "Many of the other forward
/// optimizations that we have written also have this property" — here,
/// five of them do (and the guess is *identical* to the hand-written
/// witness in each case).
///
//===----------------------------------------------------------------------===//

#include "checker/WitnessInference.h"

#include "checker/Soundness.h"
#include "core/Builder.h"
#include "ir/Parser.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

class WitnessInferenceTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }

  /// Inference applies, reproduces the hand-written witness, and the
  /// optimization re-proves with the inferred one.
  void expectInferredAndSound(const Optimization &O) {
    auto Inferred = withInferredWitness(O);
    ASSERT_TRUE(Inferred.has_value()) << O.Name;
    EXPECT_EQ(Inferred->Pat.W->str(), O.Pat.W->str()) << O.Name;
    SoundnessChecker SC(Registry, opts::allAnalyses());
    CheckReport R = SC.checkOptimization(*Inferred);
    EXPECT_TRUE(R.Sound) << R.str();
  }

  LabelRegistry Registry;
};

TEST_F(WitnessInferenceTest, ConstProp) {
  expectInferredAndSound(opts::constProp());
}
TEST_F(WitnessInferenceTest, CopyProp) {
  expectInferredAndSound(opts::copyProp());
}
TEST_F(WitnessInferenceTest, Cse) { expectInferredAndSound(opts::cse()); }
TEST_F(WitnessInferenceTest, StoreForward) {
  expectInferredAndSound(opts::storeForward());
}
TEST_F(WitnessInferenceTest, LoadCse) {
  expectInferredAndSound(opts::loadCse());
}

TEST_F(WitnessInferenceTest, BackwardPatternsDoNotApply) {
  EXPECT_EQ(inferForwardWitness(opts::deadAssignElim().Pat), nullptr);
  EXPECT_EQ(inferForwardWitness(opts::preDuplicate().Pat), nullptr);
}

TEST_F(WitnessInferenceTest, DisjunctiveEnablersDoNotApply) {
  // branch_taken's enabler is the node-independent computes(...), not an
  // assignment — no strongest postcondition to take.
  EXPECT_EQ(inferForwardWitness(opts::branchTaken().Pat), nullptr);
}

TEST_F(WitnessInferenceTest, WildcardEnablersDoNotApply) {
  // An enabler `X := ...` has no expressible postcondition.
  Optimization O = opts::constProp();
  O.Pat.G.Psi1 = stmtIs("Y := ...");
  EXPECT_EQ(inferForwardWitness(O.Pat), nullptr);
}

TEST_F(WitnessInferenceTest, AWrongGuessOnlyFailsTheProof) {
  // Pair the const-prop guard with a rewrite it does not justify: the
  // inferred witness is still the enabler's postcondition, and the
  // obligations correctly reject the combination (footnote 1: witnesses
  // are verified, never trusted).
  Optimization O = opts::constProp();
  O.Name = "const_prop_bad_rewrite";
  O.Pat.To = ir::parseStmtPatternOrDie("X := Y + C");
  auto Inferred = withInferredWitness(O);
  ASSERT_TRUE(Inferred.has_value());
  SoundnessChecker SC(Registry, opts::allAnalyses());
  SC.setPolicy({.TimeoutMs = 4000});
  EXPECT_FALSE(SC.checkOptimization(*Inferred).Sound);
}

} // namespace
