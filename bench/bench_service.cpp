//===- bench_service.cpp - What verification-as-a-service buys ------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Prices the cobaltd service model (DESIGN.md §13) on the standard
/// 21-definition suite, with `checker.prover_stall_ms` modeling real
/// multi-second prover queries (the suite's actual Z3 queries discharge
/// in microseconds):
///
///  1. **Cold single-shot baseline** — one CobaltService::check() over
///     the whole suite with an empty cache: what a from-scratch cobaltc
///     invocation pays. Every warm number is quoted against this.
///
///  2. **Dedup under concurrency** — a fresh (cold) service behind an
///     in-process Daemon, 4 concurrent clients all requesting the full
///     suite at once. The responses must be byte-identical, and the
///     obligation counters must show the suite proven exactly *once*
///     (the first requester leads, the rest await the shared future).
///
///  3. **Warm mixed throughput** — 1k and 10k mixed requests (pings,
///     stats, single-definition checks, full-suite checks) from 4
///     concurrent clients against the now-warm daemon: requests/s,
///     p50/p99 latency, cache hit rate.
///
/// Gates (exit nonzero on failure, enforced by `ctest -L benchgate`):
///   - warm full-suite check p50 < 5% of the cold single-shot latency
///   - dedup: byte-identical responses, suite proven exactly once
///
/// Emits BENCH_service.json next to the human-readable table. `--quick`
/// shortens the stall and drops the 10k row for smoke runs (gates still
/// enforced).
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cobalt;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

struct BenchConfig {
  int StallMs = 5;
  bool Quick = false;
};

/// The standard suite as a service: every label, analysis, and
/// optimization the opts library defines (21 definitions).
std::shared_ptr<api::CobaltService> buildService() {
  api::CobaltConfig Config;
  Config.Jobs = 1;
  Config.Telemetry = true; // counters drive the dedup assertions
  api::CobaltService::Builder B;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  for (const PureAnalysis &A : opts::allAnalyses())
    B.addAnalysis(A);
  for (const Optimization &O : opts::allOptimizations())
    B.addOptimization(O);
  return B.build();
}

void stallProver(int StallMs) {
  support::FaultInjector::instance().configure(
      std::string(support::faults::CheckerProverStallMs) + "=" +
      std::to_string(StallMs));
}

/// Reads a counter out of a stats response ("metrics" > "counters").
uint64_t statsCounter(const service::JsonValue &Doc, const char *Name) {
  const service::JsonValue *Metrics = Doc.find("metrics");
  const service::JsonValue *Counters =
      Metrics ? Metrics->find("counters") : nullptr;
  const service::JsonValue *C = Counters ? Counters->find(Name) : nullptr;
  return C ? C->asU64() : 0;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size()));
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

//===----------------------------------------------------------------------===//
// Phase 1: cold single-shot baseline.
//===----------------------------------------------------------------------===//

struct ColdRun {
  double Seconds = 0.0;
  unsigned Definitions = 0;
  unsigned Obligations = 0;
  bool AllSound = false;
};

ColdRun runColdBaseline(const BenchConfig &BC) {
  std::shared_ptr<api::CobaltService> Svc = buildService();
  stallProver(BC.StallMs);
  ColdRun Run;
  auto Start = std::chrono::steady_clock::now();
  api::CheckResponse Resp = Svc->check(api::CheckRequest{});
  Run.Seconds = secondsSince(Start);
  support::FaultInjector::instance().reset();
  Run.Definitions = static_cast<unsigned>(Resp.Suite.Reports.size());
  for (const checker::CheckReport &R : Resp.Suite.Reports)
    Run.Obligations += static_cast<unsigned>(R.Obligations.size());
  Run.AllSound = Resp.ok() && Resp.Suite.allSound();
  return Run;
}

//===----------------------------------------------------------------------===//
// Phase 2: obligation dedup across concurrent clients.
//===----------------------------------------------------------------------===//

struct DedupRun {
  double Seconds = 0.0;       ///< Wall for all 4 full-suite requests.
  bool ByteIdentical = false; ///< All 4 responses identical.
  bool ProvedOnce = false;    ///< checker.obligations == suite size.
  uint64_t ObligationsProved = 0;
  uint64_t DedupServed = 0; ///< Definitions served from the memo.
};

DedupRun runDedup(service::Daemon &D, const BenchConfig &BC,
                  unsigned Clients, unsigned SuiteObligations) {
  stallProver(BC.StallMs);
  std::vector<std::string> Responses(Clients);
  std::vector<std::thread> Threads;
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      service::Client C;
      if (C.connect(D.socketPath()).failed())
        return;
      support::Expected<std::string> R =
          C.request(service::makeCheckRequest({}), /*DeadlineMs=*/0);
      if (R)
        Responses[I] = std::move(*R);
    });
  for (std::thread &T : Threads)
    T.join();
  DedupRun Run;
  Run.Seconds = secondsSince(Start);
  support::FaultInjector::instance().reset();

  Run.ByteIdentical = !Responses[0].empty();
  for (unsigned I = 1; I < Clients; ++I)
    Run.ByteIdentical = Run.ByteIdentical && Responses[I] == Responses[0];

  service::Client C;
  if (!C.connect(D.socketPath()).failed()) {
    support::Expected<std::string> R =
        C.request(service::makeStatsRequest(), /*DeadlineMs=*/0);
    if (R) {
      if (std::optional<service::JsonValue> Doc = service::parseJson(*R)) {
        Run.ObligationsProved = statsCounter(*Doc, "checker.obligations");
        Run.DedupServed = statsCounter(*Doc, "service.dedup.served");
      }
    }
  }
  Run.ProvedOnce = Run.ObligationsProved == SuiteObligations;
  return Run;
}

//===----------------------------------------------------------------------===//
// Phase 3: warm mixed throughput.
//===----------------------------------------------------------------------===//

struct WarmRun {
  unsigned Requests = 0;
  double Seconds = 0.0;
  double RequestsPerSecond = 0.0;
  double P50 = 0.0, P99 = 0.0;   ///< All requests.
  double FullCheckP50 = 0.0;     ///< Full-suite checks only (the gate).
  double HitRate = 0.0;          ///< Served definitions / requested.
};

WarmRun runWarmMixed(service::Daemon &D, unsigned Clients,
                     unsigned Requests,
                     const std::vector<std::string> &Names,
                     uint64_t &CacheHitsBefore) {
  std::vector<std::vector<double>> All(Clients), Full(Clients);
  std::vector<uint64_t> Lookups(Clients, 0);
  std::vector<std::thread> Threads;
  auto Start = std::chrono::steady_clock::now();
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      service::Client C;
      if (C.connect(D.socketPath()).failed())
        return;
      for (unsigned I = T; I < Requests; I += Clients) {
        // Mix: 10% pings, 10% stats, 60% single-definition checks,
        // 20% full-suite checks.
        std::string Req;
        bool IsFull = false;
        switch (I % 10) {
        case 0:
          Req = service::makePingRequest();
          break;
        case 1:
          Req = service::makeStatsRequest();
          break;
        case 8:
        case 9:
          Req = service::makeCheckRequest({});
          IsFull = true;
          Lookups[T] += Names.size();
          break;
        default:
          Req = service::makeCheckRequest({Names[I % Names.size()]});
          Lookups[T] += 1;
          break;
        }
        auto R0 = std::chrono::steady_clock::now();
        support::Expected<std::string> R = C.request(Req, /*Deadline*/ 0);
        double S = secondsSince(R0);
        if (!R)
          return;
        All[T].push_back(S);
        if (IsFull)
          Full[T].push_back(S);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  WarmRun Run;
  Run.Requests = Requests;
  Run.Seconds = secondsSince(Start);
  Run.RequestsPerSecond =
      Run.Seconds > 0.0 ? static_cast<double>(Requests) / Run.Seconds : 0.0;

  std::vector<double> AllFlat, FullFlat;
  uint64_t TotalLookups = 0;
  for (unsigned T = 0; T < Clients; ++T) {
    AllFlat.insert(AllFlat.end(), All[T].begin(), All[T].end());
    FullFlat.insert(FullFlat.end(), Full[T].begin(), Full[T].end());
    TotalLookups += Lookups[T];
  }
  std::sort(AllFlat.begin(), AllFlat.end());
  std::sort(FullFlat.begin(), FullFlat.end());
  Run.P50 = percentile(AllFlat, 0.50);
  Run.P99 = percentile(AllFlat, 0.99);
  Run.FullCheckP50 = percentile(FullFlat, 0.50);

  service::Client C;
  if (!C.connect(D.socketPath()).failed()) {
    support::Expected<std::string> R =
        C.request(service::makeStatsRequest(), /*DeadlineMs=*/0);
    if (R) {
      if (std::optional<service::JsonValue> Doc = service::parseJson(*R)) {
        const service::JsonValue *Hits = Doc->find("cache_hits");
        uint64_t Now = Hits ? Hits->asU64() : 0;
        if (TotalLookups > 0 && Now >= CacheHitsBefore)
          Run.HitRate = static_cast<double>(Now - CacheHitsBefore) /
                        static_cast<double>(TotalLookups);
        CacheHitsBefore = Now;
      }
    }
  }
  return Run;
}

uint64_t queryCacheHits(service::Daemon &D) {
  service::Client C;
  if (C.connect(D.socketPath()).failed())
    return 0;
  support::Expected<std::string> R =
      C.request(service::makeStatsRequest(), /*DeadlineMs=*/0);
  if (!R)
    return 0;
  std::optional<service::JsonValue> Doc = service::parseJson(*R);
  if (!Doc)
    return 0;
  const service::JsonValue *Hits = Doc->find("cache_hits");
  return Hits ? Hits->asU64() : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig BC;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0) {
      BC.Quick = true;
      BC.StallMs = 2;
    } else if (std::strcmp(Argv[I], "--stall") == 0 && I + 1 < Argc) {
      BC.StallMs = std::atoi(Argv[++I]);
    } else {
      std::fprintf(stderr, "usage: bench_service [--quick] [--stall ms]\n");
      return 2;
    }
  }
  constexpr unsigned Clients = 4;

  std::printf("service: cobaltd vs single-shot on the standard suite "
              "(stall %d ms, %u clients)\n\n",
              BC.StallMs, Clients);

  // Phase 1: the cold baseline every warm number is quoted against.
  ColdRun Cold = runColdBaseline(BC);
  std::printf("  cold single-shot   %u definitions, %u obligations, "
              "%.3f s%s\n",
              Cold.Definitions, Cold.Obligations, Cold.Seconds,
              Cold.AllSound ? "" : "  [UNEXPECTED: not all sound]");

  // Phases 2+3 share one daemon: dedup runs it cold, the mixed load
  // runs it warm.
  std::shared_ptr<api::CobaltService> Svc = buildService();
  std::string Socket =
      "/tmp/cobalt_bench_service_" + std::to_string(getpid()) + ".sock";
  service::Daemon D(Svc, Socket);
  if (support::Error E = D.start(); E.failed()) {
    std::fprintf(stderr, "bench_service: %s\n", E.str().c_str());
    return 2;
  }

  DedupRun Dedup = runDedup(D, BC, Clients, Cold.Obligations);
  std::printf("  dedup (4x cold)    %.3f s wall, responses %s, "
              "%llu obligation(s) proved (suite: %u), %llu served "
              "from memo\n",
              Dedup.Seconds,
              Dedup.ByteIdentical ? "byte-identical" : "DIVERGENT",
              static_cast<unsigned long long>(Dedup.ObligationsProved),
              Cold.Obligations,
              static_cast<unsigned long long>(Dedup.DedupServed));

  std::vector<std::string> Names;
  for (const PureAnalysis &A : Svc->analyses())
    Names.push_back(A.Name);
  for (const Optimization &O : Svc->optimizations())
    Names.push_back(O.Name);

  std::vector<WarmRun> Warm;
  uint64_t HitsCursor = queryCacheHits(D);
  std::vector<unsigned> Rows =
      BC.Quick ? std::vector<unsigned>{200}
               : std::vector<unsigned>{1000, 10000};
  for (unsigned N : Rows) {
    WarmRun W = runWarmMixed(D, Clients, N, Names, HitsCursor);
    Warm.push_back(W);
    std::printf("  warm %-6u mixed  %.3f s, %.0f req/s, p50 %.3f ms, "
                "p99 %.3f ms, full-check p50 %.3f ms, hit rate %.3f\n",
                W.Requests, W.Seconds, W.RequestsPerSecond, W.P50 * 1e3,
                W.P99 * 1e3, W.FullCheckP50 * 1e3, W.HitRate);
  }
  D.stop();

  // Gates.
  const WarmRun &Last = Warm.back();
  double WarmRatio =
      Cold.Seconds > 0.0 ? Last.FullCheckP50 / Cold.Seconds : 1.0;
  constexpr double WarmRatioMax = 0.05;
  bool GateWarm = WarmRatio < WarmRatioMax;
  bool GateDedup = Dedup.ByteIdentical && Dedup.ProvedOnce;
  bool Pass = Cold.AllSound && GateWarm && GateDedup;

  std::printf("\n  gates: warm full-check p50 / cold = %.4f (max %.2f) "
              "%s; dedup %s\n",
              WarmRatio, WarmRatioMax, GateWarm ? "PASS" : "FAIL",
              GateDedup ? "PASS" : "FAIL");

  std::string J = "{\n  \"benchmark\": \"service\",\n";
  J += "  \"stall_ms\": " + std::to_string(BC.StallMs) + ",\n";
  J += "  \"clients\": " + std::to_string(Clients) + ",\n";
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "  \"cold\": {\"definitions\": %u, \"obligations\": %u, "
                "\"wall_seconds\": %.3f},\n",
                Cold.Definitions, Cold.Obligations, Cold.Seconds);
  J += Buf;
  std::snprintf(
      Buf, sizeof(Buf),
      "  \"dedup\": {\"wall_seconds\": %.3f, \"byte_identical\": %s, "
      "\"obligations_proved\": %llu, \"memo_served\": %llu},\n",
      Dedup.Seconds, Dedup.ByteIdentical ? "true" : "false",
      static_cast<unsigned long long>(Dedup.ObligationsProved),
      static_cast<unsigned long long>(Dedup.DedupServed));
  J += Buf;
  J += "  \"warm\": [\n";
  for (size_t I = 0; I < Warm.size(); ++I) {
    const WarmRun &W = Warm[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"requests\": %u, \"wall_seconds\": %.3f, "
                  "\"requests_per_second\": %.1f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"full_check_p50_ms\": %.3f, "
                  "\"hit_rate\": %.3f}%s\n",
                  W.Requests, W.Seconds, W.RequestsPerSecond, W.P50 * 1e3,
                  W.P99 * 1e3, W.FullCheckP50 * 1e3, W.HitRate,
                  I + 1 < Warm.size() ? "," : "");
    J += Buf;
  }
  J += "  ],\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"gates\": {\"warm_ratio_max\": %.2f, \"warm_ratio\": "
                "%.4f, \"dedup\": %s, \"pass\": %s}\n}\n",
                WarmRatioMax, WarmRatio, GateDedup ? "true" : "false",
                Pass ? "true" : "false");
  J += Buf;

  std::FILE *F = std::fopen("BENCH_service.json", "wb");
  if (F) {
    std::fwrite(J.data(), 1, J.size(), F);
    std::fclose(F);
  }
  std::printf("\n%s", J.c_str());
  if (!Pass) {
    std::fprintf(stderr, "bench_service: GATE FAILURE\n");
    return 1;
  }
  return 0;
}
