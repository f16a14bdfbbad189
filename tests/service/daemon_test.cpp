//===- daemon_test.cpp - cobaltd's server loop over AF_UNIX ---------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon half of verification-as-a-service, driven in-process: N
/// concurrent clients asking for the same suite receive byte-identical
/// reports while the service proves each obligation exactly once (the
/// dedup counters testify); pipelined frames are answered in order;
/// malformed frames get error responses instead of killing the
/// connection; finished connections' threads are joined, not left
/// holding their stacks; and a client "shutdown" stops the daemon
/// cleanly.
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

#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <pthread.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cobalt;
using support::ScopedFaultPlan;
namespace faults = cobalt::support::faults;

namespace {

std::shared_ptr<api::CobaltService> makeService() {
  api::CobaltConfig Config;
  Config.Telemetry = true;
  api::CobaltService::Builder B;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  B.addOptimization(opts::constProp());
  B.addOptimization(opts::cse());
  return B.build();
}

std::string socketPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "/cobaltd_" + Tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

uint64_t statsCounter(const std::string &StatsResponse, const char *Name) {
  std::optional<service::JsonValue> Doc =
      service::parseJson(StatsResponse);
  if (!Doc)
    return 0;
  const service::JsonValue *Metrics = Doc->find("metrics");
  const service::JsonValue *Counters =
      Metrics ? Metrics->find("counters") : nullptr;
  const service::JsonValue *C = Counters ? Counters->find(Name) : nullptr;
  return C ? C->asU64() : 0;
}

TEST(Daemon, PingAndStats) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("ping"));
  ASSERT_FALSE(D.start().failed());
  ASSERT_TRUE(D.running());

  service::Client C;
  ASSERT_FALSE(C.connect(D.socketPath()).failed());
  support::Expected<std::string> Ping =
      C.request(service::makePingRequest(), 10000);
  ASSERT_TRUE(Ping.ok());
  std::optional<service::JsonValue> Doc = service::parseJson(*Ping);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("status")->asString(), "ok");
  EXPECT_EQ(Doc->find("protocol")->asI64(), service::ProtocolVersion);
  EXPECT_EQ(Doc->find("definitions")->asI64(), 2);

  support::Expected<std::string> Stats =
      C.request(service::makeStatsRequest(), 10000);
  ASSERT_TRUE(Stats.ok());
  std::optional<service::JsonValue> SDoc = service::parseJson(*Stats);
  ASSERT_TRUE(SDoc.has_value());
  EXPECT_EQ(SDoc->find("status")->asString(), "ok");
  D.stop();
  EXPECT_FALSE(D.running());
}

/// This process's VmSize in kB, from /proc/self/status (0 if unread).
long vmSizeKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::strtol(Line.c_str() + 7, nullptr, 10);
  return 0;
}

TEST(Daemon, FinishedConnectionThreadsAreReaped) {
  // Keep malloc on the arenas it has: when two connection threads
  // overlap, glibc may otherwise reserve a fresh 64 MB arena, which is
  // VmSize noise this probe of thread stacks must not see.
  mallopt(M_ARENA_MAX, 1);
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("reap"));
  ASSERT_FALSE(D.start().failed());
  auto Ping = [&D] {
    service::Client C;
    ASSERT_FALSE(C.connect(D.socketPath()).failed());
    ASSERT_TRUE(C.request(service::makePingRequest(), 10000).ok());
  };
  // Whatever the first connections map for good (malloc arenas, lazy
  // set-up) is not part of the growth measured below.
  for (int I = 0; I < 8; ++I)
    Ping();
  long Before = vmSizeKb();
  ASSERT_GT(Before, 0);

  // Every connection runs on a thread of its own, and an exited thread
  // keeps its stack mapped until it is joined: 64 sequential clients
  // must not leave 64 stacks behind in a long-lived daemon.
  for (int I = 0; I < 64; ++I)
    Ping();
  long Growth = vmSizeKb() - Before;
  D.stop();

  pthread_attr_t Attr;
  size_t StackBytes = 0;
  pthread_attr_init(&Attr);
  pthread_attr_getstacksize(&Attr, &StackBytes);
  pthread_attr_destroy(&Attr);
  long StackKb = static_cast<long>(StackBytes / 1024);
  EXPECT_LT(Growth, 4 * StackKb)
      << "VmSize grew " << Growth << " kB over 64 connections (thread "
      << "stack " << StackKb << " kB)";
}

TEST(Daemon, ConcurrentClientsByteIdenticalAndProvedOnce) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("dedup"));
  ASSERT_FALSE(D.start().failed());
  // Keep the leader in flight long enough that the other clients
  // genuinely overlap (become waiters, not fresh memo readers).
  ScopedFaultPlan Plan(std::string(faults::CheckerProverStallMs) + "=20");

  constexpr unsigned Clients = 4;
  std::vector<std::string> Responses(Clients);
  std::vector<std::thread> Threads;
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

  ASSERT_FALSE(Responses[0].empty());
  for (unsigned I = 1; I < Clients; ++I)
    EXPECT_EQ(Responses[I], Responses[0]) << "client " << I << " diverged";
  std::optional<service::JsonValue> Doc =
      service::parseJson(Responses[0]);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("status")->asString(), "ok");
  EXPECT_EQ(Doc->find("exit")->asI64(), 0);

  service::Client C;
  ASSERT_FALSE(C.connect(D.socketPath()).failed());
  support::Expected<std::string> Stats =
      C.request(service::makeStatsRequest(), 10000);
  ASSERT_TRUE(Stats.ok());
  // The suite has 30 obligations (15 per optimization); 4 concurrent
  // full-suite requests must prove each exactly once.
  uint64_t Proved = statsCounter(*Stats, "checker.obligations");
  uint64_t PerSuite = 0;
  const service::JsonValue *Defs = Doc->find("definitions");
  ASSERT_NE(Defs, nullptr);
  for (const service::JsonValue &Def : Defs->Items)
    PerSuite += Def.find("obligations")->Items.size();
  EXPECT_EQ(Proved, PerSuite);
  // The other three clients' suites came from the memo.
  EXPECT_GE(statsCounter(*Stats, "service.dedup.served"),
            (Clients - 1) * 2u);
  D.stop();
}

TEST(Daemon, PipelinedFramesAnsweredInOrder) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("pipeline"));
  ASSERT_FALSE(D.start().failed());

  service::Client C;
  ASSERT_FALSE(C.connect(D.socketPath()).failed());
  std::vector<std::string> Batch = {
      service::makePingRequest(),
      service::makeCheckRequest({"const_prop"}),
      service::makeStatsRequest(),
  };
  support::Expected<std::vector<std::string>> R =
      C.requestMany(Batch, /*DeadlineMs=*/0);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R->size(), 3u);
  EXPECT_NE((*R)[0].find("\"protocol\""), std::string::npos);
  EXPECT_NE((*R)[1].find("\"definitions\""), std::string::npos);
  EXPECT_NE((*R)[2].find("\"cache_hits\""), std::string::npos);
  D.stop();
}

TEST(Daemon, RunRequest) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("run"));
  ASSERT_FALSE(D.start().failed());

  service::Client C;
  ASSERT_FALSE(C.connect(D.socketPath()).failed());
  support::Expected<std::string> R = C.request(
      service::makeRunRequest(
          "proc main(n) {\n  x := 3;\n  y := x;\n  return y;\n}\n", {},
          /*SelectedOnly=*/false),
      /*DeadlineMs=*/0);
  ASSERT_TRUE(R.ok());
  std::optional<service::JsonValue> Doc = service::parseJson(*R);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("status")->asString(), "ok");
  EXPECT_EQ(Doc->find("exit")->asI64(), 0);
  EXPECT_NE(Doc->find("optimized_il"), nullptr);

  // An unparseable program is a request error, not a dead connection.
  support::Expected<std::string> Bad = C.request(
      service::makeRunRequest("proc {", {}, false), /*DeadlineMs=*/0);
  ASSERT_TRUE(Bad.ok());
  std::optional<service::JsonValue> BadDoc = service::parseJson(*Bad);
  ASSERT_TRUE(BadDoc.has_value());
  EXPECT_EQ(BadDoc->find("status")->asString(), "error");
  D.stop();
}

TEST(Daemon, MalformedFramesGetErrorResponses) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("malformed"));
  ASSERT_FALSE(D.start().failed());

  service::Client C;
  ASSERT_FALSE(C.connect(D.socketPath()).failed());
  const char *Bad[] = {"not json", "{\"cmd\": \"frobnicate\"}", "{}"};
  for (const char *Payload : Bad) {
    support::Expected<std::string> R =
        C.request(Payload, /*DeadlineMs=*/10000);
    ASSERT_TRUE(R.ok()) << Payload;
    std::optional<service::JsonValue> Doc = service::parseJson(*R);
    ASSERT_TRUE(Doc.has_value()) << Payload;
    EXPECT_EQ(Doc->find("status")->asString(), "error") << Payload;
  }
  // The connection survived all three: a good frame still works.
  support::Expected<std::string> Ping =
      C.request(service::makePingRequest(), 10000);
  ASSERT_TRUE(Ping.ok());
  D.stop();
}

TEST(Daemon, ShutdownCommandStopsTheDaemon) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("shutdown"));
  ASSERT_FALSE(D.start().failed());

  service::Client C;
  ASSERT_FALSE(C.connect(D.socketPath()).failed());
  support::Expected<std::string> R =
      C.request(service::makeShutdownRequest(), 10000);
  ASSERT_TRUE(R.ok());
  EXPECT_NE(R->find("\"stopping\": true"), std::string::npos);
  D.wait(); // returns because the command flagged the stop
  D.stop();
  EXPECT_FALSE(D.running());
  // The socket file is gone: a fresh connect must fail.
  service::Client C2;
  EXPECT_TRUE(C2.connect(D.socketPath()).failed());
}

TEST(Daemon, DoubleStartFails) {
  std::shared_ptr<api::CobaltService> Svc = makeService();
  service::Daemon D(Svc, socketPath("double"));
  ASSERT_FALSE(D.start().failed());
  EXPECT_TRUE(D.start().failed());
  D.stop();
}

} // namespace
