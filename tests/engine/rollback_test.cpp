//===- rollback_test.cpp - Transactional passes under injected faults -----===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerance contract of the pass manager: a pass that throws
/// mid-rewrite, produces an ill-formed procedure, or miscompiles (caught
/// by the interpreter spot-check) is rolled back to a byte-identical
/// snapshot and recorded, while the rest of the pipeline keeps running.
/// Faults are injected deterministically via support/FaultInjection.h.
///
//===----------------------------------------------------------------------===//

#include "engine/PassManager.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Buggy.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;
using support::ErrorKind;
using support::ScopedFaultPlan;
namespace faults = support::faults;

namespace {

const char *SimplifiableText = R"(
  proc main(x) {
    decl a;
    decl b;
    a := x + 0;
    b := a * 1;
    return b;
  }
)";

TEST(RollbackTest, MidRewriteFaultRollsBackToExactSnapshot) {
  PassManager PM;
  PM.addOptimization(opts::simplifyAddZero());

  Program Prog = parseProgramOrDie(SimplifiableText);
  Program Before = Prog;

  ScopedFaultPlan Plan(faults::EngineThrowMidRewrite);
  auto Reports = PM.run(Prog);

  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_TRUE(Reports[0].failed());
  EXPECT_EQ(Reports[0].Err.Kind, ErrorKind::EK_PassPanic);
  EXPECT_TRUE(Reports[0].RolledBack);
  EXPECT_EQ(Reports[0].AppliedCount, 0u);

  // The rollback restores the pre-pass AST exactly: structural equality
  // and byte-identical printed form.
  ASSERT_EQ(Prog.Procs.size(), Before.Procs.size());
  EXPECT_TRUE(Prog.Procs[0] == Before.Procs[0]);
  EXPECT_EQ(toString(Prog), toString(Before));
}

TEST(RollbackTest, LaterPassesStillRunAfterRollback) {
  PassManager PM;
  PM.addOptimization(opts::simplifyAddZero());
  PM.addOptimization(opts::simplifyMulOne());

  Program Prog = parseProgramOrDie(SimplifiableText);

  // Only the first rewrite of the run (inside simplify_add_zero) faults;
  // the pipeline must still reach simplify_mul_one afterwards.
  ScopedFaultPlan Plan(std::string(faults::EngineThrowMidRewrite) + "@1");
  auto Reports = PM.run(Prog);

  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_TRUE(Reports[0].failed());
  EXPECT_TRUE(Reports[0].RolledBack);
  EXPECT_FALSE(Reports[1].failed());
  EXPECT_EQ(Reports[1].AppliedCount, 1u);

  std::string Out = toString(Prog);
  EXPECT_EQ(Out.find("* 1"), std::string::npos) << Out;   // mul-one applied
  EXPECT_NE(Out.find("x + 0"), std::string::npos) << Out; // add-zero rolled back
}

TEST(RollbackTest, SpotCheckRejectsMiscompilingPassAndRollsBack) {
  // constPropNoGuard propagates a constant across a redefinition; on the
  // program below it rewrites `b := a` to `b := 7` although a holds x by
  // then. No exception is thrown — the bug is caught by the post-pass
  // interpreter spot-check, and the procedure is rolled back instead of
  // shipping a miscompile.
  PassManager PM;
  opts::BuggyCase Buggy = opts::constPropNoGuard();
  PM.addOptimization(std::move(Buggy.Opt));

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      a := 7;
      a := x;
      b := a;
      return b;
    }
  )");
  Program Before = Prog;

  auto Reports = PM.run(Prog);

  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_TRUE(Reports[0].failed());
  EXPECT_EQ(Reports[0].Err.Kind, ErrorKind::EK_RewriteConflict);
  EXPECT_TRUE(Reports[0].RolledBack);
  EXPECT_EQ(Reports[0].AppliedCount, 0u);
  EXPECT_NE(Reports[0].Err.Message.find("spot-check"), std::string::npos)
      << Reports[0].Err.Message;

  EXPECT_TRUE(Prog.Procs[0] == Before.Procs[0]);
  EXPECT_EQ(toString(Prog), toString(Before));
}

TEST(RollbackTest, InterpreterFaultDuringSpotCheckTriggersRollback) {
  // The interpreter itself failing (forced stuck on the first post-pass
  // run) makes the rewritten program look non-returning where the
  // original returned — conservatively treated as a conflict and rolled
  // back. A sound pass is sacrificed, never soundness.
  PassManager PM;
  PM.addOptimization(opts::simplifyAddZero());

  Program Prog = parseProgramOrDie(SimplifiableText);
  Program Before = Prog;

  ScopedFaultPlan Plan(std::string(faults::InterpForceStuck) + "@1");
  auto Reports = PM.run(Prog);

  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_TRUE(Reports[0].failed());
  EXPECT_EQ(Reports[0].Err.Kind, ErrorKind::EK_RewriteConflict);
  EXPECT_TRUE(Reports[0].RolledBack);
  EXPECT_NE(Reports[0].Err.Message.find("stuck"), std::string::npos)
      << Reports[0].Err.Message;
  EXPECT_TRUE(Prog.Procs[0] == Before.Procs[0]);
}

TEST(RollbackTest, FixpointConvergesUnderPersistentFault) {
  // A rolled-back pass reports zero applications, so a persistently
  // faulting pass cannot keep runToFixpoint spinning until MaxRounds.
  PassManager PM;
  PM.addOptimization(opts::simplifyAddZero());

  Program Prog = parseProgramOrDie(SimplifiableText);
  Program Before = Prog;

  ScopedFaultPlan Plan(faults::EngineThrowMidRewrite);
  unsigned ActiveRounds = PM.runToFixpoint(Prog);

  EXPECT_EQ(ActiveRounds, 0u);
  EXPECT_EQ(toString(Prog), toString(Before));
  // Every run starts afresh: the pass that failed last round is tried
  // (and fails) again.
  EXPECT_TRUE(PM.run(Prog)[0].failed());
}

TEST(RollbackTest, NonTransactionalModeStillContainsTheException) {
  // With Transactional off there is no snapshot to restore — the failure
  // is still caught and recorded (the pipeline never crashes), but the
  // procedure keeps whatever the pass left behind.
  PassManager PM;
  PM.setTxPolicy({/*Transactional=*/false});
  PM.addOptimization(opts::simplifyAddZero());

  Program Prog = parseProgramOrDie(SimplifiableText);
  Program Before = Prog;

  ScopedFaultPlan Plan(faults::EngineThrowMidRewrite);
  auto Reports = PM.run(Prog);

  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_TRUE(Reports[0].failed());
  EXPECT_FALSE(Reports[0].RolledBack);
  EXPECT_NE(toString(Prog), toString(Before)); // half-applied, by design
}

TEST(RollbackTest, NonTransactionalFailureReplaysLabelsBeforeNextPass) {
  // The failing pass lands pre_duplicate's first rewrite (skip becomes
  // p := &a, which taints a) and then throws. With Transactional off the
  // half-applied body stays, so the taint labels computed for the old
  // body are stale: const_prop_precise, which reads them, must see them
  // replayed first. Transactional, the rollback restores the body the
  // labels were computed for, and nothing is replayed.
  const char *Text = R"(
    proc main(x) {
      decl a;
      decl p;
      decl b;
      a := x;
      skip;
      b := a;
      p := &a;
      return b;
    }
  )";
  auto RunAt = [](bool Transactional, Program &Prog,
                   support::Telemetry &Telem) {
    PassManager PM;
    PM.setTxPolicy({Transactional});
    PM.addAnalysis(opts::taintAnalysis());
    PM.addOptimization(opts::preDuplicate());
    PM.addOptimization(opts::constPropPrecise());
    support::TelemetryScope Scope(&Telem);
    ScopedFaultPlan Plan(std::string(faults::EngineThrowMidRewrite) + "@1");
    return PM.run(Prog);
  };

  Program Raw = parseProgramOrDie(Text);
  support::Telemetry RawTelem;
  std::vector<PassReport> Reports = RunAt(false, Raw, RawTelem);
  ASSERT_EQ(Reports.size(), 3u);
  EXPECT_EQ(Reports[1].PassName, "pre_duplicate");
  EXPECT_TRUE(Reports[1].failed());
  EXPECT_FALSE(Reports[1].RolledBack);
  EXPECT_FALSE(Reports[2].failed());
  std::string Out = toString(Raw);
  EXPECT_LT(Out.find("p := &a"), Out.find("b := a")) << Out; // half-applied

  // Exactly one replay (of the one analysis), inside the forward pass's
  // span, i.e. before const_prop_precise reads the labels.
  EXPECT_EQ(RawTelem.Metrics.counter("engine.label_replays"), 1u);
  const support::TraceEvent *Replay = nullptr, *Forward = nullptr;
  std::vector<support::TraceEvent> Events = RawTelem.Trace.snapshot();
  for (const support::TraceEvent &E : Events) {
    std::string Name = E.Name;
    if (Name == "labels.replay")
      Replay = &E;
    else if (Name == "pass" && E.Args.at(0).second == "const_prop_precise")
      Forward = &E;
  }
  ASSERT_NE(Replay, nullptr);
  ASSERT_NE(Forward, nullptr);
  EXPECT_GE(Replay->StartUs, Forward->StartUs);
  EXPECT_LE(Replay->StartUs + Replay->DurUs,
            Forward->StartUs + Forward->DurUs);
  ASSERT_EQ(Replay->Args.size(), 1u);
  EXPECT_EQ(std::string(Replay->Args[0].first), "analyses");
  EXPECT_EQ(Replay->Args[0].second, "1");

  Program Rolled = parseProgramOrDie(Text);
  support::Telemetry TxTelem;
  Reports = RunAt(true, Rolled, TxTelem);
  ASSERT_EQ(Reports.size(), 3u);
  EXPECT_TRUE(Reports[1].RolledBack);
  EXPECT_EQ(toString(Rolled), toString(parseProgramOrDie(Text)));
  EXPECT_EQ(TxTelem.Metrics.counter("engine.label_replays"), 0u);
}

} // namespace
