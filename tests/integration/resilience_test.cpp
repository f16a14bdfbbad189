//===- resilience_test.cpp - The pipeline survives injected faults --------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acceptance scenario of the fault-tolerance work, end to end: with
/// faults injected into the prover, the rewrite engine, and the
/// interpreter, a full check-then-optimize pipeline must complete
/// without crashing, roll back every failed pass, keep applying the
/// genuinely proven optimizations, and preserve program semantics
/// throughout. Degradation is visible (failed reports) but never fatal
/// and never unsound.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"
#include "engine/PassManager.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;
using support::ErrorKind;
using support::ScopedFaultPlan;
namespace faults = cobalt::support::faults;

namespace {

const char *PipelineProgram = R"(
  proc main(x) {
    decl a;
    decl b;
    decl c;
    decl p;
    a := 2;
    p := &b;
    *p := x;
    c := a + 0;
    c := c * 1;
    if x goto t else f;
  t:
    b := a;
    if 1 goto join else join;
  f:
    b := c;
  join:
    return b;
  }
)";

/// Semantics must agree with the original on every input where the
/// original returns (the paper's soundness direction).
void expectSameSemantics(const Program &Original, const Program &Optimized) {
  for (int64_t In : {0, 1, -1, 2, 7, 42, -13}) {
    Interpreter IO(Original), IT(Optimized);
    RunResult RO = IO.run(In), RT = IT.run(In);
    if (!RO.returned())
      continue;
    ASSERT_TRUE(RT.returned())
        << "input " << In << "\n" << toString(Optimized);
    EXPECT_EQ(RO.Result, RT.Result)
        << "input " << In << "\n" << toString(Optimized);
  }
}

TEST(ResilienceTest, FullPipelineSurvivesMixedFaultStorm) {
  PassManager PM;
  for (PureAnalysis &A : opts::allAnalyses())
    PM.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));

  Program Prog = parseProgramOrDie(PipelineProgram);
  Program Original = Prog;

  std::vector<PassReport> Reports;
  {
    // 40% of rewrites explode mid-flight, 10% of interpreter runs go
    // stuck (spurious spot-check failures). Deterministic for the seed:
    // %P decisions are keyed on the per-procedure job fingerprint, so
    // the same faults fire at every --jobs width.
    ScopedFaultPlan Plan(std::string(faults::EngineThrowMidRewrite) +
                             "%40," + faults::InterpForceStuck + "%10",
                         /*Seed=*/3);
    Reports = PM.run(Prog); // must not throw
  }

  // Every pass produced a report — nothing aborted the pipeline — and
  // every failure was contained: rolled back with zero net rewrites.
  EXPECT_FALSE(Reports.empty());
  bool AnyFailed = false, AnyApplied = false;
  for (const PassReport &R : Reports) {
    if (R.failed()) {
      AnyFailed = true;
      EXPECT_TRUE(R.RolledBack) << R.PassName;
      EXPECT_EQ(R.AppliedCount, 0u) << R.PassName;
    }
    AnyApplied = AnyApplied || R.AppliedCount > 0;
  }
  EXPECT_TRUE(AnyFailed) << "fault plan fired nothing; storm too weak";
  EXPECT_TRUE(AnyApplied) << "no pass survived; storm too strong";

  // All surviving rewrites came from proven-sound passes: semantics are
  // intact (verified with the fault plan cleared).
  expectSameSemantics(Original, Prog);
}

TEST(ResilienceTest, OnlyProvenOptimizationsAreApplied) {
  // The cobaltc gate, programmatically: a definition whose proof
  // degrades (here: every prover call times out) must not be applied,
  // while a genuinely proven one still is.
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  checker::SoundnessChecker Checker(Registry);

  checker::CheckReport Degraded;
  {
    ScopedFaultPlan Plan(faults::CheckerForceTimeout);
    Degraded = Checker.checkOptimization(opts::simplifyAddZero());
  }
  checker::CheckReport Proven =
      Checker.checkOptimization(opts::simplifyMulOne());

  ASSERT_EQ(Degraded.V, checker::CheckReport::Verdict::V_Unproven);
  ASSERT_TRUE(Proven.Sound) << Proven.str();

  PassManager PM;
  Optimization AddZero = opts::simplifyAddZero();
  Optimization MulOne = opts::simplifyMulOne();
  if (Degraded.Sound) // it is not — the gate keeps it out
    PM.addOptimization(std::move(AddZero));
  if (Proven.Sound)
    PM.addOptimization(std::move(MulOne));

  Program Prog = parseProgramOrDie(PipelineProgram);
  Program Original = Prog;
  for (const PassReport &R : PM.run(Prog))
    EXPECT_FALSE(R.failed()) << R.PassName;

  std::string Out = toString(Prog);
  EXPECT_NE(Out.find("a + 0"), std::string::npos) << Out; // gated out
  EXPECT_EQ(Out.find("* 1"), std::string::npos) << Out;   // proven, applied
  expectSameSemantics(Original, Prog);
}

TEST(ResilienceTest, UnsoundRuleIsContainedWhileProvenRulesApply) {
  // Defense in depth: even if an unsound rule sneaks past the static
  // gate, the transactional spot-check rejects and rolls it back at run
  // time — and the proven rules around it still do their work.
  PassManager PM;
  PM.addOptimization(opts::constPropNoGuard().Opt);
  PM.addOptimization(opts::simplifyMulOne());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      a := 7;
      a := x;
      b := a;
      c := b * 1;
      return c;
    }
  )");
  Program Original = Prog;

  auto Reports = PM.run(Prog);
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_EQ(Reports[0].Err.Kind, ErrorKind::EK_RewriteConflict);
  EXPECT_TRUE(Reports[0].RolledBack);
  EXPECT_EQ(Reports[1].Err.Kind, ErrorKind::EK_None);
  EXPECT_EQ(Reports[1].AppliedCount, 1u);
  expectSameSemantics(Original, Prog);
}

} // namespace
