//===- passmanager_test.cpp - Pipelines and composition rules -------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/PassManager.h"

#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Optimizations.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

TEST(PassManagerTest, AnalysisFeedsForwardOptimization) {
  PassManager PM;
  PM.addAnalysis(opts::taintAnalysis());
  PM.addOptimization(opts::constPropPrecise());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      decl p;
      decl c;
      a := 2;
      p := &b;
      *p := x;
      c := a;
      return c;
    }
  )");
  auto Reports = PM.run(Prog);
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_EQ(Reports[0].PassName, "taint_analysis");
  EXPECT_GT(Reports[0].DeltaSize, 0u);
  EXPECT_EQ(Reports[1].AppliedCount, 1u);
  EXPECT_NE(toString(Prog).find("c := 2"), std::string::npos);
}

TEST(PassManagerTest, PrePipelineEliminatesPartialRedundancy) {
  // The paper's §2.3 pipeline: duplicate, then CSE, then self-assignment
  // removal turns the partially redundant x := a + b into a fully
  // redundant one and removes it.
  PassManager PM;
  PM.addOptimization(opts::preDuplicate());
  PM.addOptimization(opts::cse());
  PM.addOptimization(opts::selfAssignRemoval());

  const char *Text = R"(
    proc main(n) {
      decl a;
      decl b;
      decl x;
      b := n;
      if n goto t else f;
    t:
      a := 1;
      x := a + b;
      if 1 goto join else join;
    f:
      skip;
    join:
      x := a + b;
      return x;
    }
  )";
  Program Prog = parseProgramOrDie(Text);
  auto Reports = PM.run(Prog);

  std::string Out = toString(Prog);
  // The else-leg skip became the computation; the join recomputation
  // reduced to x := x and then to skip.
  EXPECT_NE(Out.find("8: x := a + b"), std::string::npos) << Out;
  EXPECT_NE(Out.find("9: skip"), std::string::npos) << Out;

  // Semantics preserved on a few inputs.
  Program Original = parseProgramOrDie(Text);
  for (int64_t In : {0, 1, 5}) {
    Interpreter IO(Original), IT(Prog);
    RunResult RO = IO.run(In), RT = IT.run(In);
    ASSERT_TRUE(RO.returned());
    ASSERT_TRUE(RT.returned());
    EXPECT_EQ(RO.Result, RT.Result) << "input " << In << "\n" << Out;
  }
  (void)Reports;
}

TEST(PassManagerTest, FullPipelineRunsAllPassesAndPreservesSemantics) {
  PassManager PM;
  for (PureAnalysis &A : opts::allAnalyses())
    PM.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));

  const char *Text = R"(
    proc helper(v) { decl r; r := v * 2; return r; }
    proc main(x) {
      decl a;
      decl b;
      decl c;
      decl d;
      decl g;
      a := 2 + 3;
      b := a;
      c := b + 1;
      d := b + 1;
      d := d;
      g := 0;
      if g goto t else f;
    t:
      c := helper(c);
    f:
      return c;
    }
  )";
  Program Prog = parseProgramOrDie(Text);
  auto Reports = PM.run(Prog);
  EXPECT_FALSE(Reports.empty());
  EXPECT_EQ(validateProgram(Prog), std::nullopt) << toString(Prog);

  Program Original = parseProgramOrDie(Text);
  for (int64_t In : {-7, 0, 3, 100}) {
    Interpreter IO(Original), IT(Prog);
    RunResult RO = IO.run(In), RT = IT.run(In);
    ASSERT_TRUE(RO.returned()) << RO.str();
    ASSERT_TRUE(RT.returned()) << RT.str();
    EXPECT_EQ(RO.Result, RT.Result)
        << "input " << In << "\n"
        << toString(Prog);
  }
}

TEST(PassManagerTest, RunToFixpointCascades) {
  // const_prop enables branch folding enables branch_taken; a fixpoint
  // of the pipeline applies the whole cascade.
  PassManager PM;
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::branchFold());
  PM.addOptimization(opts::branchTaken());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      a := 1;
      b := a;
      if b goto t else f;
    t:
      x := 10;
    f:
      return x;
    }
  )");
  unsigned Rounds = PM.runToFixpoint(Prog);
  EXPECT_GE(Rounds, 1u);
  std::string Out = toString(Prog);
  EXPECT_NE(Out.find("if 1 goto 5 else 5"), std::string::npos) << Out;

  // Idempotent afterwards.
  Program Again = Prog;
  EXPECT_EQ(PM.runToFixpoint(Again), 0u);
  EXPECT_EQ(Prog, Again);
}

TEST(PassManagerTest, RunOneSelectsByName) {
  PassManager PM;
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::deadAssignElim());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      a := 2;
      x := a;
      return x;
    }
  )");
  auto Reports = PM.runOne("const_prop", Prog);
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].PassName, "const_prop");
  EXPECT_NE(toString(Prog).find("x := 2"), std::string::npos);
}

TEST(PassManagerTest, SharedLabelsAcrossPassesRegisterOnce) {
  PassManager PM;
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::copyProp()); // shares mayDef/syntacticDef
  unsigned MayDefCount = 0;
  for (const LabelDef &Def : PM.registry().predicates())
    if (Def.Name == "mayDef")
      ++MayDefCount;
  EXPECT_EQ(MayDefCount, 1u);
}

} // namespace
