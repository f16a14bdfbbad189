//===- bench_parallel.cpp - Checker scaling across --jobs widths ----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Measures the two things the parallel checker promises: obligation
/// fan-out scales suite throughput with `--jobs`, and a warm persistent
/// verdict cache makes reruns near-free.
///
/// ## Latency model
/// Real Z3 queries on this suite discharge in microseconds, so raw
/// obligation CPU time cannot demonstrate scheduler overlap on a small
/// (possibly single-core) CI box. Instead, the prover's latency is
/// modeled with the fault-injection harness: a
/// `checker.prover_stall_ms=V` payload sleeps V ms on every solver
/// attempt, standing in for the multi-second queries of real-world
/// obligations. Sleeps overlap across worker threads even on one core,
/// so the jobs-4/jobs-1 ratio measures exactly what the thread pool
/// provides — concurrent obligations in flight — independent of the
/// machine's core count. The cache series runs with no stall and real
/// solver calls.
///
/// ## Real latency
/// A second, ungated series checks the same suite at --jobs 1 and 4 with
/// no stall, so the table also shows what the lanes buy on real Z3
/// queries on the machine at hand (core count and load bound it).
///
/// Emits BENCH_parallel.json next to the human-readable table and exits
/// nonzero if either headline gate fails (>=2x at --jobs 4; warm rerun
/// < 25% of cold).
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
#include <filesystem>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

constexpr int StallMs = 40; ///< Modeled per-attempt prover latency.

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

struct SuiteRun {
  unsigned Jobs = 1;
  unsigned Definitions = 0;
  unsigned Obligations = 0;
  unsigned Proven = 0;
  double Seconds = 0.0;
};

/// Checks the full definition suite at the given width, with each prover
/// attempt stalled by \p Stall ms (0 = real latency only). Each run
/// builds a fresh checker, whose verdict store starts empty, so every run
/// pays for every obligation.
SuiteRun runSuiteAt(unsigned Jobs, int Stall) {
  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());
  ProverPolicy Policy;
  SC.setPolicy(Policy);
  support::ThreadPool Pool(Jobs);
  SC.setThreadPool(&Pool);

  if (Stall > 0)
    support::FaultInjector::instance().configure(
        std::string(support::faults::CheckerProverStallMs) + "=" +
        std::to_string(Stall));

  SuiteRun Run;
  Run.Jobs = Jobs;
  auto Start = std::chrono::steady_clock::now();
  std::vector<CheckReport> Reports =
      SC.checkSuite(opts::allAnalyses(), opts::allOptimizations());
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

/// Prints one series as table rows, speedups relative to its first row.
void printSeries(const std::vector<SuiteRun> &Runs) {
  double Base = Runs.front().Seconds;
  for (const SuiteRun &R : Runs)
    std::printf("%6u %12u %12u %8u %10.3f %8.2fx\n", R.Jobs, R.Definitions,
                R.Obligations, R.Proven, R.Seconds,
                R.Seconds > 0 ? Base / R.Seconds : 0.0);
}

/// Writes one series as a JSON array body, speedups as in printSeries.
void writeSeries(std::FILE *Json, const std::vector<SuiteRun> &Runs) {
  double Base = Runs.front().Seconds;
  for (size_t I = 0; I < Runs.size(); ++I) {
    const SuiteRun &R = Runs[I];
    std::fprintf(Json,
                 "    {\"jobs\": %u, \"definitions\": %u, "
                 "\"obligations\": %u, \"proven\": %u, "
                 "\"wall_seconds\": %.3f, \"speedup\": %.2f}%s\n",
                 R.Jobs, R.Definitions, R.Obligations, R.Proven, R.Seconds,
                 R.Seconds > 0 ? Base / R.Seconds : 0.0,
                 I + 1 < Runs.size() ? "," : "");
  }
}

struct CacheRun {
  double ColdSeconds = 0.0;
  double WarmSeconds = 0.0;
  unsigned WarmHits = 0;
  /// Cache traffic as the metrics registry saw it (cold + warm run):
  /// verdict-level hits/misses and disk-level hits/stores.
  uint64_t VerdictHits = 0;
  uint64_t VerdictMisses = 0;
  uint64_t DiskHits = 0;
  uint64_t DiskStores = 0;
};

/// Cold check into an empty persistent cache, then a rerun from a fresh
/// checker instance that can only be fast by hitting the disk cache.
/// No stall: this series measures real prover work avoided.
CacheRun runCacheSeries() {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "cobalt_bench_parallel_cache";
  fs::remove_all(Dir);

  LabelRegistry Registry = makeRegistry();
  CacheRun Run;
  // One telemetry session across both runs: its counters double-check
  // the wall-clock story (the warm rerun must be all hits, no stores).
  support::Telemetry Telem;
  support::TelemetryScope Scope(&Telem);
  {
    SoundnessChecker Cold(Registry, opts::allAnalyses());
    Cold.setCacheDir(Dir.string());
    auto Start = std::chrono::steady_clock::now();
    Cold.checkSuite(opts::allAnalyses(), opts::allOptimizations());
    Run.ColdSeconds = secondsSince(Start);
  }
  {
    SoundnessChecker Warm(Registry, opts::allAnalyses());
    Warm.setCacheDir(Dir.string());
    auto Start = std::chrono::steady_clock::now();
    Warm.checkSuite(opts::allAnalyses(), opts::allOptimizations());
    Run.WarmSeconds = secondsSince(Start);
    Run.WarmHits = Warm.cacheHits();
  }
  Run.VerdictHits = Telem.Metrics.counter("checker.cache.hits");
  Run.VerdictMisses = Telem.Metrics.counter("checker.cache.misses");
  Run.DiskHits = Telem.Metrics.counter("cache.disk.hits");
  Run.DiskStores = Telem.Metrics.counter("cache.disk.stores");
  fs::remove_all(Dir);
  return Run;
}

} // namespace

int main() {
  std::printf("parallel: suite wall-clock vs --jobs width "
              "(prover latency modeled at %d ms/attempt)\n",
              StallMs);
  std::printf("%6s %12s %12s %8s %10s %9s\n", "jobs", "definitions",
              "obligations", "proven", "wall(s)", "speedup");

  std::vector<SuiteRun> Runs;
  for (unsigned Jobs : {1u, 2u, 4u, 8u})
    Runs.push_back(runSuiteAt(Jobs, StallMs));
  printSeries(Runs);
  double SpeedupAt4 = 0.0;
  for (const SuiteRun &R : Runs)
    if (R.Jobs == 4 && R.Seconds > 0)
      SpeedupAt4 = Runs.front().Seconds / R.Seconds;

  std::printf("real latency (no stall, not gated):\n");
  std::vector<SuiteRun> RealRuns;
  for (unsigned Jobs : {1u, 4u})
    RealRuns.push_back(runSuiteAt(Jobs, 0));
  printSeries(RealRuns);

  CacheRun Cache = runCacheSeries();
  double WarmRatio =
      Cache.ColdSeconds > 0 ? Cache.WarmSeconds / Cache.ColdSeconds : 1.0;
  std::printf("cache: cold %.3f s, warm rerun %.3f s (%.1f%% of cold, "
              "%u hits)\n",
              Cache.ColdSeconds, Cache.WarmSeconds, WarmRatio * 100.0,
              Cache.WarmHits);
  std::printf("cache metrics: %llu verdict hits / %llu misses, "
              "%llu disk hits, %llu disk stores\n",
              static_cast<unsigned long long>(Cache.VerdictHits),
              static_cast<unsigned long long>(Cache.VerdictMisses),
              static_cast<unsigned long long>(Cache.DiskHits),
              static_cast<unsigned long long>(Cache.DiskStores));

  bool ScalingOk = SpeedupAt4 >= 2.0;
  bool CacheOk = WarmRatio < 0.25;

  std::FILE *Json = std::fopen("BENCH_parallel.json", "w");
  if (Json) {
    std::fprintf(Json,
                 "{\n  \"benchmark\": \"parallel\",\n"
                 "  \"stall_ms\": %d,\n  \"series\": [\n",
                 StallMs);
    writeSeries(Json, Runs);
    std::fprintf(Json, "  ],\n  \"real_series\": [\n");
    writeSeries(Json, RealRuns);
    std::fprintf(Json,
                 "  ],\n  \"cache\": {\"cold_seconds\": %.3f, "
                 "\"warm_seconds\": %.3f, \"warm_ratio\": %.3f, "
                 "\"warm_hits\": %u},\n"
                 "  \"cache_metrics\": {\"verdict_hits\": %llu, "
                 "\"verdict_misses\": %llu, \"disk_hits\": %llu, "
                 "\"disk_stores\": %llu},\n"
                 "  \"gates\": {\"speedup_at_4_min\": 2.0, "
                 "\"speedup_at_4\": %.2f, \"warm_ratio_max\": 0.25, "
                 "\"warm_ratio\": %.3f, \"pass\": %s}\n}\n",
                 Cache.ColdSeconds, Cache.WarmSeconds, WarmRatio,
                 Cache.WarmHits,
                 static_cast<unsigned long long>(Cache.VerdictHits),
                 static_cast<unsigned long long>(Cache.VerdictMisses),
                 static_cast<unsigned long long>(Cache.DiskHits),
                 static_cast<unsigned long long>(Cache.DiskStores),
                 SpeedupAt4, WarmRatio,
                 ScalingOk && CacheOk ? "true" : "false");
    std::fclose(Json);
    std::printf("wrote BENCH_parallel.json\n");
  }

  if (!ScalingOk)
    std::printf("GATE FAILED: --jobs 4 speedup %.2fx < 2.0x\n", SpeedupAt4);
  if (!CacheOk)
    std::printf("GATE FAILED: warm rerun %.1f%% of cold >= 25%%\n",
                WarmRatio * 100.0);
  if (ScalingOk && CacheOk)
    std::printf("gates passed: %.2fx at --jobs 4, warm rerun %.1f%% of "
                "cold\n",
                SpeedupAt4, WarmRatio * 100.0);
  return ScalingOk && CacheOk ? 0 : 1;
}
