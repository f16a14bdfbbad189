//===- containment_test.cpp - Worker crashes never take the run down -----===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end containment (DESIGN.md §12): obligations discharged in
/// forked prover workers under fault storms — crashes, hangs, memory
/// blow-ups, torn response frames. Every storm must (a) let the suite run
/// to completion, (b) degrade only the faulted obligations, to
/// unknown(EK_WorkerCrash), and (c) produce byte-identical reports at
/// every --jobs width. Also pins the never-cache-a-quarantined-verdict
/// rule.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;
using support::ScopedFaultPlan;
using support::ThreadPool;
namespace faults = cobalt::support::faults;
namespace fs = std::filesystem;

namespace {

const unsigned Widths[] = {1, 4};

LabelRegistry makeRegistry() {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  return Registry;
}

/// Everything except wall-clock timings, via the cache serialization.
std::string suiteFingerprint(const std::vector<CheckReport> &Reports) {
  std::ostringstream Out;
  for (const CheckReport &R : Reports)
    Out << serializeCheckReport(R) << "\n---\n";
  return Out.str();
}

struct RunConfig {
  unsigned Jobs = 1;
  std::string FaultPlan; ///< Empty = no injection.
  uint64_t Seed = 0;
  unsigned WallMs = 0;  ///< 0 = checker default.
  unsigned RssMb = 0;   ///< 0 = unwatched.
  bool Isolate = true;  ///< WI_Subprocess unless cleared.
  std::string CacheDir; ///< Empty = no disk cache.
};

/// Runs a small fixed suite (one analysis, two optimizations — enough to
/// exercise the pool without minutes of fork/retry churn) and returns the
/// timing-free report fingerprint.
std::string runSuite(const RunConfig &RC) {
  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());

  ProverPolicy P;
  P.Isolation = RC.Isolate ? WorkerIsolation::WI_Subprocess
                           : WorkerIsolation::WI_InProcess;
  P.WorkerWallMs = RC.WallMs;
  P.WorkerRssMb = RC.RssMb;
  SC.setPolicy(P);
  if (!RC.CacheDir.empty())
    SC.setCacheDir(RC.CacheDir);

  ThreadPool Pool(RC.Jobs);
  SC.setThreadPool(&Pool);
  std::vector<Optimization> Opts = {opts::constProp(), opts::cse()};

  if (RC.FaultPlan.empty())
    return suiteFingerprint(SC.checkSuite(opts::allAnalyses(), Opts));
  ScopedFaultPlan Plan(RC.FaultPlan, RC.Seed);
  return suiteFingerprint(SC.checkSuite(opts::allAnalyses(), Opts));
}

unsigned countOccurrences(const std::string &Hay, const std::string &Needle) {
  unsigned N = 0;
  for (size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Clean isolation: same answers, different address space.
//===----------------------------------------------------------------------===//

TEST(ContainmentTest, CleanIsolationMatchesInProcessVerdicts) {
  RunConfig InProc;
  InProc.Isolate = false;
  std::string Baseline = runSuite(InProc);
  ASSERT_NE(Baseline.find("const_prop"), std::string::npos);
  EXPECT_EQ(Baseline.find("worker_crash"), std::string::npos);

  for (unsigned Jobs : Widths) {
    RunConfig OutOfProc;
    OutOfProc.Jobs = Jobs;
    EXPECT_EQ(runSuite(OutOfProc), Baseline) << "jobs=" << Jobs;
  }
}

TEST(ContainmentTest, CleanSuiteForksOneWorkerPerLane) {
  // --jobs 4 is four lanes, and each lane keeps its own worker for the
  // whole check: four initial forks, none replaced on a clean run.
  support::Telemetry Telem;
  {
    support::TelemetryScope Scope(&Telem);
    RunConfig RC;
    RC.Jobs = 4;
    runSuite(RC);
  }
  EXPECT_EQ(Telem.Metrics.counter("worker.spawns"), 4u);
  EXPECT_EQ(Telem.Metrics.counter("worker.restarts"), 0u);
}

//===----------------------------------------------------------------------===//
// Fault storms: completion, classification, width-determinism.
//===----------------------------------------------------------------------===//

TEST(ContainmentTest, CrashStormQuarantinesDeterministically) {
  auto Storm = [](unsigned Jobs) {
    RunConfig RC;
    RC.Jobs = Jobs;
    RC.FaultPlan = std::string(faults::WorkerCrash) + "%20";
    RC.Seed = 9;
    return runSuite(RC);
  };
  // The run completes; faulted obligations degrade to EK_WorkerCrash.
  // Retries redraw the same per-obligation decision, so every faulted
  // obligation exhausts its worker budget — quarantine is deterministic.
  std::string Baseline = Storm(1);
  unsigned Quarantined = countOccurrences(Baseline, "worker_crash");
  ASSERT_GT(Quarantined, 0u) << "storm fired nothing:\n" << Baseline;
  EXPECT_NE(Baseline.find("worker died mid-request"), std::string::npos);

  for (unsigned Jobs : Widths)
    EXPECT_EQ(Storm(Jobs), Baseline) << "jobs=" << Jobs;
}

TEST(ContainmentTest, HungWorkersKilledByWallWatchdog) {
  auto Storm = [](unsigned Jobs) {
    RunConfig RC;
    RC.Jobs = Jobs;
    RC.FaultPlan = std::string(faults::WorkerHang) + "%6";
    RC.Seed = 3;
    RC.WallMs = 750; // headroom over any honest obligation, yet three
                     // hung attempts still cost only ~2 s
    return runSuite(RC);
  };
  std::string Baseline = Storm(1);
  ASSERT_GT(countOccurrences(Baseline, "worker_crash"), 0u)
      << "no hang fired:\n"
      << Baseline;
  EXPECT_NE(Baseline.find("watchdog: wall budget"), std::string::npos);

  for (unsigned Jobs : Widths)
    EXPECT_EQ(Storm(Jobs), Baseline) << "jobs=" << Jobs;
}

TEST(ContainmentTest, BallooningWorkersKilledByRssWatchdog) {
  auto Storm = [](unsigned Jobs) {
    RunConfig RC;
    RC.Jobs = Jobs;
    RC.FaultPlan = std::string(faults::WorkerOom) + "%6";
    RC.Seed = 4;
    RC.RssMb = 48;
    RC.WallMs = 30000; // the rss watchdog must win, not the wall one
    return runSuite(RC);
  };
  std::string Baseline = Storm(1);
  ASSERT_GT(countOccurrences(Baseline, "worker_crash"), 0u)
      << "no oom fired:\n"
      << Baseline;
  EXPECT_NE(Baseline.find("watchdog: rss budget"), std::string::npos);

  for (unsigned Jobs : Widths)
    EXPECT_EQ(Storm(Jobs), Baseline) << "jobs=" << Jobs;
}

TEST(ContainmentTest, TornResponseFramesClassifiedAsCrashes) {
  auto Storm = [](unsigned Jobs) {
    RunConfig RC;
    RC.Jobs = Jobs;
    RC.FaultPlan = std::string(faults::WorkerPartialWrite) + "%15";
    RC.Seed = 11;
    return runSuite(RC);
  };
  std::string Baseline = Storm(1);
  ASSERT_GT(countOccurrences(Baseline, "worker_crash"), 0u)
      << "no torn frame fired:\n"
      << Baseline;
  // The half-written ObligationResult must never surface as data.
  EXPECT_NE(Baseline.find("worker died mid-request"), std::string::npos);

  for (unsigned Jobs : Widths)
    EXPECT_EQ(Storm(Jobs), Baseline) << "jobs=" << Jobs;
}

//===----------------------------------------------------------------------===//
// Degradation policy.
//===----------------------------------------------------------------------===//

TEST(ContainmentTest, QuarantinedVerdictsNeverCached) {
  fs::path Dir = fs::temp_directory_path() / "cobalt-containment-cache";
  fs::remove_all(Dir);

  RunConfig Storm;
  Storm.Jobs = 4;
  Storm.FaultPlan = std::string(faults::WorkerCrash) + "%20";
  Storm.Seed = 9;
  Storm.CacheDir = Dir.string();
  std::string Degraded = runSuite(Storm);
  ASSERT_GT(countOccurrences(Degraded, "worker_crash"), 0u);

  // Same cache, no faults: every quarantined definition must be
  // re-proven from scratch, not replayed from a poisoned entry.
  RunConfig Clean;
  Clean.Jobs = 4;
  Clean.CacheDir = Dir.string();
  std::string Healed = runSuite(Clean);
  EXPECT_EQ(Healed.find("worker_crash"), std::string::npos)
      << "a degraded verdict was served from the cache:\n"
      << Healed;

  RunConfig NoCache;
  NoCache.Jobs = 4;
  EXPECT_EQ(Healed, runSuite(NoCache));
  fs::remove_all(Dir);
}
