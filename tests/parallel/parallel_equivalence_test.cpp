//===- parallel_equivalence_test.cpp - `--jobs N` is bit-identical --------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel pipeline's core promise: whatever the thread-pool width,
/// checker reports, pass reports, rewritten programs, and injected-fault
/// decisions are byte-identical to the sequential run. Obligations are
/// deterministic Z3 queries collected in input order; per-procedure jobs
/// merge in procedure order; fault decisions key on stable job
/// fingerprints instead of arrival order. These tests pin all of that at
/// widths 1, 4, and 8.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"
#include "engine/PassManager.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;
using namespace cobalt::engine;
using support::ScopedFaultPlan;
using support::ThreadPool;
namespace faults = cobalt::support::faults;

namespace {

/// The widths under test. 1 is the sequential baseline.
const unsigned Widths[] = {1, 4, 8};

LabelRegistry makeRegistry() {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  return Registry;
}

/// Serializes a whole suite of reports into one comparable blob. Uses
/// the cache serialization (name, verdict, degradation, per-obligation
/// status/kind/message/attempts/counterexample) — everything except the
/// wall-clock timings, which legitimately differ between runs.
std::string
suiteFingerprint(const std::vector<CheckReport> &Reports) {
  std::ostringstream Out;
  for (const CheckReport &R : Reports)
    Out << serializeCheckReport(R) << "\n---\n";
  return Out.str();
}

/// Runs the checker suite at the given width over a fixed definition set.
std::string runSuiteAt(unsigned Jobs) {
  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());
  ThreadPool Pool(Jobs);
  SC.setThreadPool(&Pool);
  std::vector<Optimization> Opts = {opts::constProp(), opts::cse(),
                                    opts::deadAssignElim()};
  return suiteFingerprint(SC.checkSuite(opts::allAnalyses(), Opts));
}

const char *MultiProcProgram = R"(
  proc helper(a) {
    decl t;
    decl u;
    t := 3;
    u := t;
    u := u + a;
    return u;
  }
  proc other(b) {
    decl v;
    v := b;
    v := v * 1;
    return v;
  }
  proc main(x) {
    decl c;
    decl d;
    c := 2;
    d := c + 0;
    d := d * 1;
    d := d + x;
    return d;
  }
)";

struct PipelineOutcome {
  std::string Program;
  std::string Reports; ///< (pass, proc, applied, kind, flags) sequence.
  bool Degraded = false;
};

PipelineOutcome runPipelineAt(unsigned Jobs, const std::string &FaultPlan,
                              uint64_t Seed) {
  PassManager PM;
  for (PureAnalysis &A : opts::allAnalyses())
    PM.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));
  ThreadPool Pool(Jobs);
  PM.setThreadPool(&Pool);

  ir::Program Prog = ir::parseProgramOrDie(MultiProcProgram);
  std::vector<PassReport> Reports;
  if (FaultPlan.empty()) {
    Reports = PM.run(Prog);
  } else {
    ScopedFaultPlan Plan(FaultPlan, Seed);
    Reports = PM.run(Prog);
  }

  PipelineOutcome Out;
  Out.Program = ir::toString(Prog);
  std::ostringstream R;
  for (const PassReport &Rep : Reports)
    R << Rep.PassName << "/" << Rep.ProcName << " applied="
      << Rep.AppliedCount << " kind=" << Rep.Err.kindName()
      << " msg=" << Rep.Err.Message << " rolled=" << Rep.RolledBack
      << " quar=" << Rep.Quarantined << "\n";
  Out.Reports = R.str();
  Out.Degraded = PM.lastRunDegraded();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Checker equivalence.
//===----------------------------------------------------------------------===//

TEST(ParallelEquivalenceTest, CheckerSuiteBitIdenticalAcrossWidths) {
  std::string Baseline = runSuiteAt(1);
  EXPECT_NE(Baseline.find("const_prop"), std::string::npos);
  for (unsigned Jobs : Widths)
    EXPECT_EQ(runSuiteAt(Jobs), Baseline) << "jobs=" << Jobs;
}

TEST(ParallelEquivalenceTest, CheckerFaultDecisionsKeyedNotArrivalOrdered) {
  // A probabilistic fault plan decides per (site, obligation
  // fingerprint, ordinal, seed); with 8 workers racing, the same
  // obligations must time out as in the sequential run — byte-identical
  // reports including attempt counts and error messages.
  auto RunStorm = [&](unsigned Jobs) {
    ScopedFaultPlan Plan(std::string(faults::CheckerForceTimeout) + "%30",
                         /*Seed=*/5);
    return runSuiteAt(Jobs);
  };
  std::string Baseline = RunStorm(1);
  EXPECT_NE(Baseline.find("prover_timeout"), std::string::npos)
      << "storm fired nothing:\n"
      << Baseline;
  for (unsigned Jobs : Widths)
    EXPECT_EQ(RunStorm(Jobs), Baseline) << "jobs=" << Jobs;
}

TEST(ParallelEquivalenceTest, SuiteReportsMatchPerDefinitionCalls) {
  // checkSuite fans all definitions' obligations out together; the
  // reassembled reports must equal one-definition-at-a-time checking.
  LabelRegistry Registry = makeRegistry();
  std::vector<Optimization> Opts = {opts::constProp(), opts::cse()};

  SoundnessChecker Individual(Registry, opts::allAnalyses());
  std::vector<CheckReport> One;
  for (const PureAnalysis &A : opts::allAnalyses())
    One.push_back(Individual.checkAnalysis(A));
  for (const Optimization &O : Opts)
    One.push_back(Individual.checkOptimization(O));

  SoundnessChecker Suite(Registry, opts::allAnalyses());
  ThreadPool Pool(4);
  Suite.setThreadPool(&Pool);
  std::vector<CheckReport> All = Suite.checkSuite(opts::allAnalyses(), Opts);

  EXPECT_EQ(suiteFingerprint(All), suiteFingerprint(One));
}

//===----------------------------------------------------------------------===//
// Pass-pipeline equivalence.
//===----------------------------------------------------------------------===//

TEST(ParallelEquivalenceTest, PipelineBitIdenticalAcrossWidths) {
  PipelineOutcome Baseline = runPipelineAt(1, "", 0);
  EXPECT_NE(Baseline.Reports.find("applied=1"), std::string::npos)
      << "pipeline rewrote nothing:\n"
      << Baseline.Reports;
  for (unsigned Jobs : Widths) {
    PipelineOutcome Out = runPipelineAt(Jobs, "", 0);
    EXPECT_EQ(Out.Program, Baseline.Program) << "jobs=" << Jobs;
    EXPECT_EQ(Out.Reports, Baseline.Reports) << "jobs=" << Jobs;
    EXPECT_EQ(Out.Degraded, Baseline.Degraded) << "jobs=" << Jobs;
  }
}

TEST(ParallelEquivalenceTest, PipelineFaultStormDeterministicAcrossWidths) {
  const std::string Storm = std::string(faults::EngineThrowMidRewrite) +
                            "%40," + faults::InterpForceStuck + "%10";
  PipelineOutcome Baseline = runPipelineAt(1, Storm, 3);
  EXPECT_TRUE(Baseline.Degraded) << "storm fired nothing";
  for (unsigned Jobs : Widths) {
    PipelineOutcome Out = runPipelineAt(Jobs, Storm, 3);
    EXPECT_EQ(Out.Program, Baseline.Program) << "jobs=" << Jobs;
    EXPECT_EQ(Out.Reports, Baseline.Reports) << "jobs=" << Jobs;
    EXPECT_EQ(Out.Degraded, Baseline.Degraded) << "jobs=" << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// Rollback and quarantine under concurrent failure.
//===----------------------------------------------------------------------===//

TEST(ParallelEquivalenceTest, ConcurrentFailuresRollBackEveryProcedure) {
  // Every rewrite attempt explodes, in every procedure job at once. All
  // failures must be contained per procedure (rolled back, zero net
  // rewrites) and the program must come out byte-identical to the input.
  PassManager PM;
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));
  ThreadPool Pool(4);
  PM.setThreadPool(&Pool);

  ir::Program Prog = ir::parseProgramOrDie(MultiProcProgram);
  std::string Before = ir::toString(Prog);
  std::vector<PassReport> Reports;
  {
    ScopedFaultPlan Plan(faults::EngineThrowMidRewrite);
    Reports = PM.run(Prog);
  }
  EXPECT_EQ(ir::toString(Prog), Before);
  EXPECT_TRUE(PM.lastRunDegraded());
  bool AnyFailed = false;
  for (const PassReport &R : Reports) {
    if (!R.failed())
      continue;
    AnyFailed = true;
    EXPECT_TRUE(R.RolledBack) << R.PassName << "/" << R.ProcName;
    EXPECT_EQ(R.AppliedCount, 0u) << R.PassName << "/" << R.ProcName;
  }
  EXPECT_TRUE(AnyFailed);
}

TEST(ParallelEquivalenceTest, QuarantineReadsRunStartStateAtEveryWidth) {
  // Quarantine decisions snapshot the run-start failure counters, so a
  // pass crossing the threshold mid-run is quarantined on the *next*
  // run — identically at every width. The failure streak is counted
  // per (procedure, pass) event and a success anywhere resets it, so
  // the program gives the pass a rewrite site in *every* procedure;
  // with every rewrite exploding, three failing runs comfortably trip
  // the default threshold and the next run must report quarantine
  // skips.
  const char *EverywhereSites = R"(
    proc helper(a) {
      decl t;
      t := a;
      t := t * 1;
      return t;
    }
    proc other(b) {
      decl v;
      v := b;
      v := v * 1;
      return v;
    }
    proc main(x) {
      decl d;
      d := x;
      d := d * 1;
      return d;
    }
  )";
  for (unsigned Jobs : Widths) {
    PassManager PM;
    for (Optimization &O : opts::allOptimizations())
      PM.addOptimization(std::move(O));
    ThreadPool Pool(Jobs);
    PM.setThreadPool(&Pool);

    ir::Program Prog = ir::parseProgramOrDie(EverywhereSites);
    std::vector<std::string> QuarantinedAfter;
    {
      ScopedFaultPlan Plan(faults::EngineThrowMidRewrite);
      for (int Run = 0; Run < 3; ++Run)
        PM.run(Prog);
      QuarantinedAfter = PM.quarantined();
    }
    ASSERT_FALSE(QuarantinedAfter.empty()) << "jobs=" << Jobs;

    // With the fault gone, the quarantined passes are still skipped...
    std::vector<PassReport> Reports = PM.run(Prog);
    bool SawSkip = false;
    for (const PassReport &R : Reports)
      if (R.Quarantined) {
        SawSkip = true;
        EXPECT_EQ(R.Err.Kind, support::ErrorKind::EK_Quarantined);
      }
    EXPECT_TRUE(SawSkip) << "jobs=" << Jobs;

    // ...until the quarantine is reset.
    PM.resetQuarantine();
    EXPECT_TRUE(PM.quarantined().empty());
    for (const PassReport &R : PM.run(Prog))
      EXPECT_FALSE(R.Quarantined) << R.PassName;
  }
}
