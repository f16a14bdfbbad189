//===- bench_observability.cpp - What always-on telemetry costs -----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Prices the observability tier (DESIGN.md §9) on the warm daemon
/// path, where its relative cost is highest: every request is answered
/// from the verdict cache / dedup memo, so span recording, trace-ID
/// plumbing, and latency histograms are a large fraction of the little
/// work that remains.
///
/// Two identical daemons serve the same warm mixed batch (70%
/// single-definition checks, 20% full-suite checks, 10% stats), one
/// with telemetry off, one with tracing + metrics on. Batches alternate
/// off/on for several repetitions and each side keeps its best wall,
/// squeezing scheduler drift out of the ratio.
///
/// Gate (exit nonzero on failure, enforced by `ctest -L benchgate`):
///   - telemetry-on wall <= telemetry-off wall * 1.03 + 0.20 s
///     (the ISSUE's "< 3% tracing overhead", with an absolute floor so
///     micro-walls on loaded CI boxes cannot trip the relative gate)
///
/// Emits BENCH_observability.json next to the human-readable table.
/// `--quick` shrinks the batch for smoke runs (gate still enforced).
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

using namespace cobalt;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The standard 21-definition suite behind a daemon, telemetry on or
/// off. Everything else identical.
std::shared_ptr<api::CobaltService> buildService(bool Telemetry) {
  api::CobaltConfig Config;
  Config.Jobs = 1;
  Config.Telemetry = Telemetry;
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

struct Side {
  std::shared_ptr<api::CobaltService> Svc;
  std::unique_ptr<service::Daemon> Daemon;
  service::Client Conn;
  double BestWall = 1e18;
};

bool startSide(Side &S, bool Telemetry, const char *Tag) {
  S.Svc = buildService(Telemetry);
  std::string Socket = "/tmp/cobalt_bench_obs_" + std::string(Tag) + "_" +
                       std::to_string(getpid()) + ".sock";
  S.Daemon = std::make_unique<service::Daemon>(S.Svc, Socket);
  if (S.Daemon->start().failed())
    return false;
  if (S.Conn.connect(S.Daemon->socketPath()).failed())
    return false;
  // Warm: prove the whole suite once, so the measured batches pay only
  // the service tier (memo lookups, serialization — and telemetry).
  support::Expected<std::string> R =
      S.Conn.request(service::makeCheckRequest({}), /*DeadlineMs=*/0);
  return R.ok() && R->find("\"status\": \"ok\"") != std::string::npos;
}

/// One timed batch of \p Requests warm requests over a live connection.
double runBatch(Side &S, unsigned Requests,
                const std::vector<std::string> &Names) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Requests; ++I) {
    std::string Req;
    switch (I % 10) {
    case 0:
      Req = service::makeStatsRequest();
      break;
    case 8:
    case 9:
      Req = service::makeCheckRequest({});
      break;
    default:
      Req = service::makeCheckRequest({Names[I % Names.size()]});
      break;
    }
    support::Expected<std::string> R =
        S.Conn.request(Req, /*DeadlineMs=*/0);
    if (!R.ok())
      return -1.0;
  }
  return secondsSince(Start);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Requests = 2000, Reps = 3;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0) {
      Requests = 400;
    } else if (std::strcmp(Argv[I], "--requests") == 0 && I + 1 < Argc) {
      Requests = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_observability [--quick] [--requests n]\n");
      return 2;
    }
  }

  std::printf("observability: warm daemon, telemetry off vs on "
              "(%u requests x %u reps, best wall)\n\n",
              Requests, Reps);

  Side Off, On;
  if (!startSide(Off, /*Telemetry=*/false, "off") ||
      !startSide(On, /*Telemetry=*/true, "on")) {
    std::fprintf(stderr, "bench_observability: daemon startup failed\n");
    return 2;
  }

  std::vector<std::string> Names;
  for (const PureAnalysis &A : On.Svc->analyses())
    Names.push_back(A.Name);
  for (const Optimization &O : On.Svc->optimizations())
    Names.push_back(O.Name);

  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    double OffWall = runBatch(Off, Requests, Names);
    double OnWall = runBatch(On, Requests, Names);
    if (OffWall < 0.0 || OnWall < 0.0) {
      std::fprintf(stderr, "bench_observability: request failed\n");
      return 2;
    }
    Off.BestWall = std::min(Off.BestWall, OffWall);
    On.BestWall = std::min(On.BestWall, OnWall);
    std::printf("  rep %u   off %.3f s (%.0f req/s)   on %.3f s "
                "(%.0f req/s)\n",
                Rep + 1, OffWall, Requests / OffWall, OnWall,
                Requests / OnWall);
  }

  // What the enabled side actually recorded while being measured — the
  // run is only an honest price if the instrumentation really fired.
  uint64_t Spans = 0, LatencySamples = 0;
  if (support::Telemetry *T = On.Svc->telemetry()) {
    Spans = T->Trace.eventCount();
    LatencySamples = T->Metrics.histogram("service.latency.check").Count +
                     T->Metrics.histogram("service.latency.stats").Count;
  }
  Off.Daemon->stop();
  On.Daemon->stop();

  constexpr double RatioMax = 1.03, AbsToleranceS = 0.20;
  double Overhead =
      Off.BestWall > 0.0 ? On.BestWall / Off.BestWall - 1.0 : 0.0;
  bool Recorded = Spans > 0 && LatencySamples > 0;
  bool GateWall = On.BestWall <= Off.BestWall * RatioMax + AbsToleranceS;
  bool Pass = GateWall && Recorded;

  std::printf("\n  best: off %.3f s, on %.3f s — overhead %+.2f%% "
              "(gate: <= %.0f%% + %.2f s abs) %s\n",
              Off.BestWall, On.BestWall, Overhead * 1e2,
              (RatioMax - 1.0) * 1e2, AbsToleranceS,
              GateWall ? "PASS" : "FAIL");
  std::printf("  recorded while measured: %llu span(s), %llu latency "
              "sample(s) %s\n",
              static_cast<unsigned long long>(Spans),
              static_cast<unsigned long long>(LatencySamples),
              Recorded ? "" : "[GATE: telemetry never fired]");

  char Buf[512];
  std::string J = "{\n  \"benchmark\": \"observability\",\n";
  J += "  \"requests\": " + std::to_string(Requests) + ",\n";
  J += "  \"reps\": " + std::to_string(Reps) + ",\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"off_wall_seconds\": %.3f,\n"
                "  \"on_wall_seconds\": %.3f,\n"
                "  \"overhead\": %.4f,\n",
                Off.BestWall, On.BestWall, Overhead);
  J += Buf;
  std::snprintf(
      Buf, sizeof(Buf),
      "  \"recorded\": {\"spans\": %llu, \"latency_samples\": %llu},\n",
      static_cast<unsigned long long>(Spans),
      static_cast<unsigned long long>(LatencySamples));
  J += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"gates\": {\"ratio_max\": %.2f, \"abs_tolerance_s\": "
                "%.2f, \"wall\": %s, \"recorded\": %s, \"pass\": %s}\n}\n",
                RatioMax, AbsToleranceS, GateWall ? "true" : "false",
                Recorded ? "true" : "false", Pass ? "true" : "false");
  J += Buf;

  std::FILE *F = std::fopen("BENCH_observability.json", "wb");
  if (F) {
    std::fwrite(J.data(), 1, J.size(), F);
    std::fclose(F);
  }
  std::printf("\n%s", J.c_str());
  if (!Pass) {
    std::fprintf(stderr, "bench_observability: GATE FAILURE\n");
    return 1;
  }
  return 0;
}
