//===- bench_containment.cpp - What out-of-process isolation costs --------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Prices the containment story (DESIGN.md §12) along its two axes:
///
///  1. **Isolation overhead** — the same stalled-prover suite
///     bench_parallel uses (checker.prover_stall_ms models multi-second
///     real-world queries; sleeps overlap regardless of core count),
///     checked in-process and again in forked workers at each width. The
///     per-obligation cost of the worker path is one fork-inherited
///     closure call plus a framed request/response round-trip — it must
///     stay in the noise next to any real prover query. Gate: < 15%
///     extra wall time at --jobs 4.
///
///  2. **Recovery latency** — with a deterministic crash storm injected
///     into the workers, how long a replacement fork takes (the
///     worker.respawn_ms histogram: fork + bookkeeping in the lane,
///     backoff excluded) and what the storm does to suite wall time.
///     Gate: mean respawn under 250 ms — crash recovery must be
///     milliseconds, not another prover query.
///
/// Emits BENCH_containment.json next to the human-readable table and
/// exits nonzero if either gate fails. `--quick` drops the suite to two
/// optimizations and a shorter stall for smoke runs (gates still
/// enforced).
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

LabelRegistry makeRegistry() {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  return Registry;
}

struct BenchConfig {
  int StallMs = 40;
  bool Quick = false;
};

std::vector<Optimization> suiteOpts(const BenchConfig &BC) {
  if (BC.Quick)
    return {opts::constProp(), opts::cse()};
  return opts::allOptimizations();
}

struct SuiteRun {
  unsigned Jobs = 1;
  bool Isolated = false;
  unsigned Definitions = 0;
  unsigned Obligations = 0;
  unsigned Proven = 0;
  double Seconds = 0.0;
};

/// One stalled-prover suite pass. \p FaultPlan is layered on top of the
/// stall payload (empty = clean run).
SuiteRun runSuiteAt(const BenchConfig &BC, unsigned Jobs, bool Isolated,
                    const std::string &FaultPlan = "", uint64_t Seed = 0) {
  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());
  ProverPolicy Policy;
  Policy.Isolation = Isolated ? WorkerIsolation::WI_Subprocess
                              : WorkerIsolation::WI_InProcess;
  SC.setPolicy(Policy);
  support::ThreadPool Pool(Jobs);
  SC.setThreadPool(&Pool);

  std::string Plan = std::string(support::faults::CheckerProverStallMs) +
                     "=" + std::to_string(BC.StallMs);
  if (!FaultPlan.empty())
    Plan += "," + FaultPlan;
  support::FaultInjector::instance().configure(Plan, Seed);

  SuiteRun Run;
  Run.Jobs = Jobs;
  Run.Isolated = Isolated;
  auto Start = std::chrono::steady_clock::now();
  std::vector<CheckReport> Reports =
      SC.checkSuite(opts::allAnalyses(), suiteOpts(BC));
  Run.Seconds = secondsSince(Start);
  support::FaultInjector::instance().reset();

  for (const CheckReport &R : Reports) {
    ++Run.Definitions;
    Run.Obligations += static_cast<unsigned>(R.Obligations.size());
    if (R.Sound)
      ++Run.Proven;
  }
  return Run;
}

struct RecoveryRun {
  double Seconds = 0.0;       ///< Storm-suite wall time.
  uint64_t Restarts = 0;      ///< Replacement forks taken.
  uint64_t Crashes = 0;       ///< Worker deaths observed.
  uint64_t Quarantined = 0;   ///< Obligations degraded (crash%P redraws
                              ///< the same decision on retries).
  double RespawnMeanMs = 0.0; ///< worker.respawn_ms histogram mean.
  double RespawnMaxMs = 0.0;
};

/// The crash storm: a deterministic fraction of obligations kills its
/// worker; every one costs the pool a respawn, timed by the
/// worker.respawn_ms histogram.
RecoveryRun runRecovery(const BenchConfig &BC, unsigned Jobs) {
  support::Telemetry Telem;
  RecoveryRun Run;
  {
    support::TelemetryScope Scope(&Telem);
    SuiteRun S = runSuiteAt(
        BC, Jobs, /*Isolated=*/true,
        std::string(support::faults::WorkerCrash) + "%10", /*Seed=*/17);
    Run.Seconds = S.Seconds;
  }
  Run.Restarts = Telem.Metrics.counter("worker.restarts");
  Run.Crashes = Telem.Metrics.counter("worker.crashes");
  Run.Quarantined = Telem.Metrics.counter("worker.quarantined");
  support::HistogramStats H = Telem.Metrics.histogram("worker.respawn_ms");
  if (H.Count) {
    Run.RespawnMeanMs = H.Sum / static_cast<double>(H.Count);
    Run.RespawnMaxMs = H.Max;
  }
  return Run;
}

} // namespace

int main(int argc, char **argv) {
  BenchConfig BC;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0) {
      BC.Quick = true;
      BC.StallMs = 15;
    }

  std::printf("containment: out-of-process prover cost "
              "(prover latency modeled at %d ms/attempt%s)\n",
              BC.StallMs, BC.Quick ? ", quick" : "");
  std::printf("%6s %10s %12s %8s %10s %10s\n", "jobs", "mode",
              "obligations", "proven", "wall(s)", "overhead");

  double OverheadAt4 = 0.0;
  std::vector<SuiteRun> Runs;
  for (unsigned Jobs : {1u, 4u}) {
    SuiteRun In = runSuiteAt(BC, Jobs, /*Isolated=*/false);
    SuiteRun Out = runSuiteAt(BC, Jobs, /*Isolated=*/true);
    double Overhead =
        In.Seconds > 0 ? (Out.Seconds - In.Seconds) / In.Seconds : 0.0;
    if (Jobs == 4)
      OverheadAt4 = Overhead;
    std::printf("%6u %10s %12u %8u %10.3f %9s\n", Jobs, "inproc",
                In.Obligations, In.Proven, In.Seconds, "-");
    std::printf("%6u %10s %12u %8u %10.3f %+9.1f%%\n", Jobs, "workers",
                Out.Obligations, Out.Proven, Out.Seconds,
                Overhead * 100.0);
    Runs.push_back(In);
    Runs.push_back(Out);
  }

  RecoveryRun Rec = runRecovery(BC, 4);
  std::printf("recovery: crash storm (10%% of obligations) %.3f s wall, "
              "%llu crashes, %llu respawns (mean %.1f ms, max %.1f ms), "
              "%llu quarantined\n",
              Rec.Seconds, static_cast<unsigned long long>(Rec.Crashes),
              static_cast<unsigned long long>(Rec.Restarts),
              Rec.RespawnMeanMs, Rec.RespawnMaxMs,
              static_cast<unsigned long long>(Rec.Quarantined));

  bool OverheadOk = OverheadAt4 < 0.15;
  // No histogram entries means no respawn was timed — with a 10% storm
  // over 60+ obligations, that would mean the storm never fired.
  bool RecoveryOk = Rec.Restarts > 0 && Rec.RespawnMeanMs < 250.0;

  std::FILE *Json = std::fopen("BENCH_containment.json", "w");
  if (Json) {
    std::fprintf(Json,
                 "{\n  \"benchmark\": \"containment\",\n"
                 "  \"stall_ms\": %d,\n  \"quick\": %s,\n"
                 "  \"series\": [\n",
                 BC.StallMs, BC.Quick ? "true" : "false");
    for (size_t I = 0; I < Runs.size(); ++I) {
      const SuiteRun &R = Runs[I];
      std::fprintf(Json,
                   "    {\"jobs\": %u, \"mode\": \"%s\", "
                   "\"definitions\": %u, \"obligations\": %u, "
                   "\"proven\": %u, \"wall_seconds\": %.3f}%s\n",
                   R.Jobs, R.Isolated ? "workers" : "inproc",
                   R.Definitions, R.Obligations, R.Proven, R.Seconds,
                   I + 1 < Runs.size() ? "," : "");
    }
    std::fprintf(Json,
                 "  ],\n  \"recovery\": {\"wall_seconds\": %.3f, "
                 "\"crashes\": %llu, \"respawns\": %llu, "
                 "\"respawn_mean_ms\": %.1f, \"respawn_max_ms\": %.1f, "
                 "\"quarantined\": %llu},\n"
                 "  \"gates\": {\"overhead_at_4_max\": 0.15, "
                 "\"overhead_at_4\": %.3f, \"respawn_mean_ms_max\": 250.0, "
                 "\"respawn_mean_ms\": %.1f, \"pass\": %s}\n}\n",
                 Rec.Seconds, static_cast<unsigned long long>(Rec.Crashes),
                 static_cast<unsigned long long>(Rec.Restarts),
                 Rec.RespawnMeanMs, Rec.RespawnMaxMs,
                 static_cast<unsigned long long>(Rec.Quarantined),
                 OverheadAt4, Rec.RespawnMeanMs,
                 OverheadOk && RecoveryOk ? "true" : "false");
    std::fclose(Json);
    std::printf("wrote BENCH_containment.json\n");
  }

  if (!OverheadOk)
    std::printf("GATE FAILED: worker overhead %+.1f%% at --jobs 4 >= 15%%\n",
                OverheadAt4 * 100.0);
  if (!RecoveryOk)
    std::printf("GATE FAILED: respawn mean %.1f ms (respawns=%llu); want "
                "> 0 respawns under 250 ms\n",
                Rec.RespawnMeanMs,
                static_cast<unsigned long long>(Rec.Restarts));
  if (OverheadOk && RecoveryOk)
    std::printf("gates passed: %+.1f%% overhead at --jobs 4, respawn mean "
                "%.1f ms\n",
                OverheadAt4 * 100.0, Rec.RespawnMeanMs);
  return OverheadOk && RecoveryOk ? 0 : 1;
}
