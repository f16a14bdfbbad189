//===- request_trace_test.cpp - Distributed tracing through the daemon ----===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end observability through the service tier (DESIGN.md §9,
/// §13): a fixed request sequence produces the same deterministic
/// telemetry at --jobs 1 and --jobs 4 through the real Daemon + Client
/// path; subprocess prover workers ship their span buffers back across
/// the fork so the parent's trace merges daemon, service, and worker
/// spans under one request trace ID (even while an injected
/// worker.crash plan is killing a fifth of them); and a quarantine is
/// named in the response, with one worker/kill span per dead worker in
/// the trace.
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

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>
#include <unistd.h>

using namespace cobalt;
using support::ScopedFaultPlan;
namespace faults = cobalt::support::faults;

namespace {

const char *ProgramSource = R"(
proc main(n) {
  decl a;
  decl b;
  decl x;
  decl y;
  decl r;
  a := 2;
  b := a;
  x := b + 3;
  y := b + 3;
  r := x + y;
  return r;
}
)";

std::shared_ptr<api::CobaltService>
makeService(unsigned Jobs,
            checker::WorkerIsolation Isolation =
                checker::WorkerIsolation::WI_InProcess) {
  api::CobaltConfig Config;
  Config.Telemetry = true;
  Config.Jobs = Jobs;
  Config.Prover.Isolation = Isolation;
  api::CobaltService::Builder B;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  B.addOptimization(opts::constProp());
  B.addOptimization(opts::cse());
  return B.build();
}

std::string socketPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "/cobalt_rt_" + Tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Sends one client request and returns the response body (empty on
/// transport failure — callers assert on content).
std::string ask(service::Daemon &D, const std::string &Frame) {
  service::Client C;
  if (C.connect(D.socketPath()).failed())
    return {};
  support::Expected<std::string> R = C.request(Frame, /*DeadlineMs=*/0);
  return R ? std::move(*R) : std::string();
}

/// The deterministic telemetry of one daemon session: the span multiset
/// keyed by cat/name/args (trace IDs, pids, lanes, and timestamps are
/// per-run artifacts and excluded by construction — identity lives in
/// dedicated TraceEvent fields, never Args) plus the curated counters.
struct SessionTelemetry {
  std::vector<std::string> Spans;
  std::map<std::string, uint64_t> Counters;
};

bool curatedCounter(const std::string &Name) {
  // threadpool.* legitimately differs between inline and pooled
  // execution; everything else deterministic rides along.
  return Name.rfind("threadpool.", 0) != 0;
}

SessionTelemetry harvest(api::CobaltService &Svc) {
  SessionTelemetry Out;
  support::Telemetry *T = Svc.telemetry();
  EXPECT_NE(T, nullptr);
  if (!T)
    return Out;
  for (const support::TraceEvent &E : T->Trace.snapshot()) {
    std::string Key = std::string(E.Cat) + "/" + E.Name + "{";
    for (const auto &[K, V] : E.Args)
      Key += std::string(K) + "=" + V + ",";
    Key += "}";
    Out.Spans.push_back(std::move(Key));
  }
  std::sort(Out.Spans.begin(), Out.Spans.end());
  for (const auto &[Name, Value] : T->Metrics.counters())
    if (curatedCounter(Name))
      Out.Counters.emplace(Name, Value);
  return Out;
}

/// Drives the fixed request sequence (check, run, stats) through the
/// real socket path and harvests the session telemetry.
SessionTelemetry runSession(unsigned Jobs, const char *Tag) {
  std::shared_ptr<api::CobaltService> Svc = makeService(Jobs);
  service::Daemon D(Svc, socketPath(Tag));
  EXPECT_FALSE(D.start().failed());

  std::string Check = ask(D, service::makeCheckRequest({}));
  EXPECT_NE(Check.find("\"status\": \"ok\""), std::string::npos);
  std::string Run = ask(
      D, service::makeRunRequest(ProgramSource, {}, /*SelectedOnly=*/false));
  EXPECT_NE(Run.find("\"status\": \"ok\""), std::string::npos);
  std::string Stats = ask(D, service::makeStatsRequest());
  EXPECT_NE(Stats.find("\"status\": \"ok\""), std::string::npos);
  D.stop();
  return harvest(*Svc);
}

TEST(RequestTrace, SameTelemetryAcrossJobWidthsThroughDaemon) {
  SessionTelemetry Sequential = runSession(1, "jobs1");
  SessionTelemetry Parallel = runSession(4, "jobs4");

  // Sanity: the daemon tier actually contributed spans and counters.
  EXPECT_FALSE(Sequential.Spans.empty());
  auto Has = [&Sequential](const char *Prefix) {
    return std::any_of(Sequential.Spans.begin(), Sequential.Spans.end(),
                       [Prefix](const std::string &S) {
                         return S.rfind(Prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(Has("daemon/check"));
  EXPECT_TRUE(Has("daemon/run"));
  EXPECT_TRUE(Has("daemon/stats"));
  EXPECT_TRUE(Has("service/prove"));
  // check + run hit the service; stats is answered daemon-side.
  EXPECT_EQ(Sequential.Counters.at("service.requests"), 2u);
  EXPECT_GT(Sequential.Counters.at("checker.obligations"), 0u);

  EXPECT_EQ(Sequential.Spans, Parallel.Spans);
  EXPECT_EQ(Sequential.Counters, Parallel.Counters);
}

TEST(RequestTrace, WorkerSpansMergeUnderInjectedCrashes) {
  std::shared_ptr<api::CobaltService> Svc =
      makeService(2, checker::WorkerIsolation::WI_Subprocess);
  service::Daemon D(Svc, socketPath("merge"));
  ASSERT_FALSE(D.start().failed());

  // A fifth of the workers die mid-request (same per-obligation draw at
  // every width); the survivors' span buffers must still merge.
  ScopedFaultPlan Plan(std::string(faults::WorkerCrash) + "%20",
                       /*Seed=*/9);
  constexpr uint64_t TraceId = 0xC0FFEE;
  std::string Check = ask(D, service::makeCheckRequest(
                                 {}, /*Jobs=*/0, /*BudgetMs=*/-1,
                                 /*FaultSalt=*/0, TraceId));
  ASSERT_NE(Check.find("\"status\": \"ok\""), std::string::npos);
  D.stop();

  support::Telemetry *T = Svc->telemetry();
  ASSERT_NE(T, nullptr);
  unsigned Merged = 0, Tagged = 0, Worlds = 0;
  bool DaemonSpanTagged = false;
  for (const support::TraceEvent &E : T->Trace.snapshot()) {
    if (E.Pid != 0) {
      ++Merged;
      // A worker records its discharges and the Z3 worlds they build.
      std::string_view Name = E.Name;
      EXPECT_TRUE(Name == "discharge" || Name == "world") << Name;
      Worlds += Name == "world";
      if (E.TraceId == TraceId)
        ++Tagged;
    }
    if (std::string_view(E.Cat) == "daemon" && E.TraceId == TraceId)
      DaemonSpanTagged = true;
  }
  // Imported worker spans exist, and every one is attributed to the
  // client's request ID — one distributed trace across the fork.
  EXPECT_GT(Merged, 0u);
  EXPECT_GT(Worlds, 0u);
  EXPECT_EQ(Tagged, Merged);
  EXPECT_TRUE(DaemonSpanTagged);

  // The merged JSON introduces the foreign pids to the trace viewer.
  std::string J = T->Trace.json();
  EXPECT_NE(J.find("\"process_name\""), std::string::npos);
  EXPECT_NE(J.find("\"prover-worker\""), std::string::npos);
  EXPECT_NE(J.find("\"trace_id\": \"0000000000c0ffee\""),
            std::string::npos);
}

TEST(RequestTrace, QuarantineDumpsFlightRecorder) {
  std::shared_ptr<api::CobaltService> Svc =
      makeService(2, checker::WorkerIsolation::WI_Subprocess);
  service::Daemon D(Svc, socketPath("quarantine"));
  ASSERT_FALSE(D.start().failed());

  // Every prover call crashes, every retry redraws the same decision:
  // the whole suite quarantines deterministically.
  ScopedFaultPlan Plan(std::string(faults::WorkerCrash) + "%100");
  std::string Check = ask(D, service::makeCheckRequest({}));
  D.stop();
  std::optional<service::JsonValue> Doc = service::parseJson(Check);
  ASSERT_TRUE(Doc.has_value()) << Check;
  ASSERT_EQ(Doc->find("status")->asString(), "ok") << Check;

  // The response names every quarantined obligation and why. (Both
  // definitions have obligations of the same names.)
  std::map<std::string, unsigned> Quarantined;
  for (const service::JsonValue &Def : Doc->find("definitions")->Items)
    for (const service::JsonValue &Ob : Def.find("obligations")->Items) {
      if (Ob.find("error")->asString() != "worker_crash")
        continue;
      EXPECT_EQ(Ob.find("reason")->asString().rfind("quarantined after ", 0),
                0u)
          << Check;
      ++Quarantined[Ob.find("name")->asString()];
    }
  ASSERT_FALSE(Quarantined.empty()) << Check;

  // The trace holds the kills behind them: a worker/kill span per
  // attempt, recorded by the daemon on the lane that saw the worker die.
  std::map<std::string, unsigned> Kills;
  for (const support::TraceEvent &E : Svc->telemetry()->Trace.snapshot()) {
    if (std::string_view(E.Cat) != "worker" ||
        std::string_view(E.Name) != "kill")
      continue;
    EXPECT_EQ(E.Pid, 0);
    EXPECT_EQ(E.DurUs, 0u);
    ASSERT_EQ(E.Args.size(), 2u);
    EXPECT_STREQ(E.Args[0].first, "ob");
    EXPECT_STREQ(E.Args[1].first, "why");
    EXPECT_EQ(E.Args[1].second.rfind("worker died mid-request", 0), 0u)
        << E.Args[1].second;
    ++Kills[E.Args[0].second];
  }
  const unsigned Attempts = Svc->config().Prover.WorkerRestarts + 1;
  for (auto &[Name, Count] : Quarantined)
    Count *= Attempts;
  EXPECT_EQ(Kills, Quarantined);
}

} // namespace
