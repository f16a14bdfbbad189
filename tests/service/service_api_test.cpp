//===- service_api_test.cpp - CobaltService request semantics -------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The immutable service half of the API redesign (DESIGN.md §13):
/// request resolution, per-request overrides, obligation-level dedup
/// across concurrent callers (prove once, serve everyone, link the
/// joiners' trace IDs), the never-keep-Unproven rule, the §6
/// assumed-analysis gate, the verdict store's mem-vs-disk counters, and
/// concurrent pipeline requests on the service's one pass manager.
///
//===----------------------------------------------------------------------===//

#include "api/ReportJson.h"
#include "api/Service.h"
#include "checker/VerdictStore.h"
#include "ir/Printer.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace cobalt;
using namespace cobalt::api;
using support::ScopedFaultPlan;
namespace faults = cobalt::support::faults;
namespace fs = std::filesystem;

namespace {

fs::path scratchDir(const std::string &Name) {
  fs::path Dir = fs::path(::testing::TempDir()) / ("cobalt_svc_" + Name);
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

/// A small two-optimization service; \p Config is applied as given.
std::shared_ptr<CobaltService> makeService(CobaltConfig Config) {
  CobaltService::Builder B;
  B.config(std::move(Config));
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  B.addOptimization(opts::constProp());
  B.addOptimization(opts::cse());
  return B.build();
}

uint64_t counter(CobaltService &Svc, const char *Name) {
  return Svc.telemetry() ? Svc.telemetry()->Metrics.counter(Name) : 0;
}

TEST(ServiceApi, CheckAllRegistered) {
  std::shared_ptr<CobaltService> Svc = makeService(CobaltConfig{});
  CheckResponse Resp = Svc->check(CheckRequest{});
  ASSERT_TRUE(Resp.ok());
  ASSERT_EQ(Resp.Suite.Reports.size(), 2u);
  EXPECT_TRUE(Resp.Suite.allSound());
  EXPECT_EQ(Resp.Suite.Reports[0].Name, "const_prop");
  EXPECT_EQ(Resp.Suite.Reports[1].Name, "cse");
  EXPECT_EQ(CobaltService::exitCodeFor(Resp.Suite, false), 0);
}

TEST(ServiceApi, OnlySubsetAndOrder) {
  std::shared_ptr<CobaltService> Svc = makeService(CobaltConfig{});
  // Registration order wins over request order: responses stay
  // deterministic no matter how the client spelled the subset.
  CheckRequest Req;
  Req.Only = {"cse", "const_prop"};
  CheckResponse Resp = Svc->check(Req);
  ASSERT_TRUE(Resp.ok());
  ASSERT_EQ(Resp.Suite.Reports.size(), 2u);
  EXPECT_EQ(Resp.Suite.Reports[0].Name, "const_prop");
  EXPECT_EQ(Resp.Suite.Reports[1].Name, "cse");
}

TEST(ServiceApi, UnknownDefinitionIsError) {
  std::shared_ptr<CobaltService> Svc = makeService(CobaltConfig{});
  CheckRequest Req;
  Req.Only = {"licm"};
  CheckResponse Resp = Svc->check(Req);
  ASSERT_EQ(Resp.Status, ResponseStatus::RS_Error);
  EXPECT_EQ(Resp.Err.Kind, support::ErrorKind::EK_Unavailable);
  EXPECT_NE(Resp.Err.Message.find("licm"), std::string::npos);
  EXPECT_TRUE(Resp.Suite.Reports.empty());
}

TEST(ServiceApi, MemoServesRepeatCheaply) {
  CobaltConfig Config;
  Config.Telemetry = true;
  std::shared_ptr<CobaltService> Svc = makeService(Config);
  CheckResponse First = Svc->check(CheckRequest{});
  ASSERT_TRUE(First.ok());
  unsigned HitsAfterFirst = Svc->cacheHits();
  CheckResponse Second = Svc->check(CheckRequest{});
  ASSERT_TRUE(Second.ok());
  // Both definitions were served from the in-flight memo, not re-proven.
  EXPECT_GE(Svc->cacheHits(), HitsAfterFirst + 2);
  EXPECT_GE(counter(*Svc, "service.dedup.served"), 2u);
  // Served and proven reports must say the same thing.
  ASSERT_EQ(First.Suite.Reports.size(), Second.Suite.Reports.size());
  for (size_t I = 0; I < First.Suite.Reports.size(); ++I) {
    EXPECT_EQ(First.Suite.Reports[I].Name, Second.Suite.Reports[I].Name);
    EXPECT_EQ(First.Suite.Reports[I].Sound,
              Second.Suite.Reports[I].Sound);
  }
}

TEST(ServiceApi, ConcurrentRequestsProveOnce) {
  CobaltConfig Config;
  Config.Telemetry = true;
  std::shared_ptr<CobaltService> Svc = makeService(Config);
  // The stall keeps the leader in flight long enough for the other
  // threads to become waiters on the shared future.
  ScopedFaultPlan Plan(std::string(faults::CheckerProverStallMs) + "=20");
  // Concurrent in-process callers install per-request TelemetryScopes;
  // holding the service's session ambient for the whole test makes
  // their nested scopes value-idempotent (the daemon does the same).
  support::TelemetryScope Outer(Svc->telemetry());

  constexpr unsigned Threads = 4;
  std::vector<std::thread> Workers;
  std::atomic<unsigned> SoundSuites{0};
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([&] {
      CheckResponse R = Svc->check(CheckRequest{});
      if (R.ok() && R.Suite.allSound())
        SoundSuites.fetch_add(1);
    });
  for (std::thread &T : Workers)
    T.join();

  EXPECT_EQ(SoundSuites.load(), Threads);
  uint64_t Obligations = counter(*Svc, "checker.obligations");
  // One proving of the two-definition suite — not Threads provings.
  CheckResponse Single = Svc->check(CheckRequest{});
  uint64_t PerSuite = 0;
  for (const checker::CheckReport &R : Single.Suite.Reports)
    PerSuite += R.Obligations.size();
  EXPECT_EQ(Obligations, PerSuite);
  EXPECT_GE(counter(*Svc, "service.dedup.served"),
            (Threads - 1) * Single.Suite.Reports.size());
}

TEST(ServiceApi, BudgetOverrideAndUnprovenEviction) {
  CobaltConfig Config;
  Config.Telemetry = true;
  std::shared_ptr<CobaltService> Svc = makeService(Config);
  support::TelemetryScope Outer(Svc->telemetry());

  // A starvation budget + stalled prover forces Unproven.
  {
    ScopedFaultPlan Plan(std::string(faults::CheckerProverStallMs) +
                         "=50");
    CheckRequest Req;
    Req.Only = {"const_prop"};
    Req.BudgetMs = 1;
    CheckResponse R = Svc->check(Req);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.Suite.Unproven, 1u);
    EXPECT_EQ(CobaltService::exitCodeFor(R.Suite, false), 3);
  }
  // Unproven is never memoized: with the fault gone and the budget back
  // to policy, the same definition must be re-proven and come up sound.
  CheckRequest Req;
  Req.Only = {"const_prop"};
  CheckResponse R = Svc->check(Req);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Suite.allSound());
}

TEST(ServiceApi, LeaderProveSpanLinksJoinedRequests) {
  CobaltConfig Config;
  Config.Telemetry = true;
  std::shared_ptr<CobaltService> Svc = makeService(Config);
  ScopedFaultPlan Plan(std::string(faults::CheckerProverStallMs) + "=30");
  support::TelemetryScope Outer(Svc->telemetry());

  constexpr uint64_t LeaderId = 0xA11CE, JoinerId = 0xB0B;
  std::thread Leader([&] {
    CheckRequest Req;
    Req.Only = {"const_prop"};
    Req.TraceId = LeaderId;
    EXPECT_TRUE(Svc->check(Req).ok());
  });
  // Join once the leader holds const_prop: its proving then stalls 30 ms
  // per obligation, far longer than the join takes.
  for (int Ms = 0; Ms < 5000 && counter(*Svc, "service.dedup.leader") == 0;
       ++Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  CheckRequest Req;
  Req.Only = {"const_prop"};
  Req.TraceId = JoinerId;
  EXPECT_TRUE(Svc->check(Req).ok());
  Leader.join();

  // The leader's prove span names the request it proved for.
  std::vector<std::vector<uint64_t>> Links;
  for (const support::TraceEvent &E : Svc->telemetry()->Trace.snapshot())
    if (std::string_view(E.Cat) == "service" &&
        std::string_view(E.Name) == "prove" && E.TraceId == LeaderId)
      Links.push_back(E.Linked);
  EXPECT_EQ(Links, std::vector<std::vector<uint64_t>>{{JoinerId}});
}

TEST(ServiceApi, MemVsDiskCacheCounters) {
  fs::path Dir = scratchDir("two_tier");

  CobaltConfig Config;
  Config.Telemetry = true;
  Config.CacheDir = Dir.string();

  // Service 1, first proving: both tiers miss, both tiers store.
  {
    std::shared_ptr<CobaltService> Svc = makeService(Config);
    support::TelemetryScope Outer(Svc->telemetry());
    CheckRequest Req;
    Req.Only = {"const_prop"};
    ASSERT_TRUE(Svc->check(Req).ok());
    EXPECT_GE(counter(*Svc, "cache.mem.misses"), 1u);
    EXPECT_GE(counter(*Svc, "cache.disk.stores"), 1u);
    EXPECT_EQ(counter(*Svc, "cache.mem.hits"), 0u);

    // Same service, second check: the memory tier answers without
    // touching disk.
    uint64_t DiskHits = counter(*Svc, "cache.disk.hits");
    Svc->check(Req);
    EXPECT_GE(counter(*Svc, "cache.mem.hits"), 1u);
    EXPECT_EQ(counter(*Svc, "cache.disk.hits"), DiskHits);
  }

  // Service 2, same directory: fresh memory, so the disk tier answers
  // (decoded once into memory).
  {
    std::shared_ptr<CobaltService> Svc = makeService(Config);
    support::TelemetryScope Outer(Svc->telemetry());
    CheckRequest Req;
    Req.Only = {"const_prop"};
    CheckResponse R = Svc->check(Req);
    ASSERT_TRUE(R.ok());
    EXPECT_TRUE(R.Suite.Reports[0].CacheHit);
    EXPECT_GE(counter(*Svc, "cache.disk.hits"), 1u);
    EXPECT_EQ(counter(*Svc, "cache.mem.hits"), 0u);
  }
  fs::remove_all(Dir);
}

TEST(ServiceApi, StoredFingerprintsKeyVerdicts) {
  // The service computes each definition's fingerprint once and keeps it
  // beside the definition (analyses first); each equals a fresh
  // checker's, and check() keys verdicts by them.
  CobaltService::Builder B;
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  B.addAnalysis(opts::taintAnalysis());
  B.addOptimization(opts::constProp());
  B.addOptimization(opts::constPropPrecise());
  std::shared_ptr<CobaltService> Svc = B.build();

  checker::SoundnessChecker Fresh(Svc->registry(), Svc->analyses());
  ASSERT_EQ(Svc->fingerprints(),
            (std::vector<uint64_t>{
                Fresh.fingerprintAnalysis(Svc->analyses()[0]),
                Fresh.fingerprintOptimization(Svc->optimizations()[0]),
                Fresh.fingerprintOptimization(Svc->optimizations()[1])}));

  CheckRequest Req;
  Req.Only = {"taint_analysis", "const_prop"};
  ASSERT_TRUE(Svc->check(Req).ok());
  const std::vector<uint64_t> &Keys = Svc->fingerprints();
  EXPECT_FALSE(Svc->verdictCache()->claim(Keys[0]).leads());
  EXPECT_FALSE(Svc->verdictCache()->claim(Keys[1]).leads());
  EXPECT_TRUE(Svc->verdictCache()->claim(Keys[2]).leads()); // not checked
}

TEST(ServiceApi, PipelineRequestRoundTrip) {
  std::shared_ptr<CobaltService> Svc = makeService(CobaltConfig{});
  support::Expected<ir::Program> Prog = Svc->parseProgram(
      "proc main(n) {\n  x := 3;\n  y := x;\n  return y;\n}\n");
  ASSERT_TRUE(Prog.ok());

  PipelineRequest Req;
  Req.Prog = std::move(*Prog);
  PipelineResponse Resp = Svc->run(std::move(Req));
  ASSERT_TRUE(Resp.ok());
  EXPECT_FALSE(Resp.Result.Degraded);
  // Two registered passes over one procedure.
  EXPECT_EQ(Resp.Result.Reports.size(), 2u);
  // The transformed program came back out.
  EXPECT_FALSE(Resp.Prog.Procs.empty());
}

TEST(ServiceApi, ConcurrentRunsShareOnePipeline) {
  // Every run request executes on the service's one PassManager. Eight
  // threads, four requests each, mixing sequential (Jobs = 1) and
  // pooled (Jobs = 0) runs of the whole stdlib pipeline and of a
  // selected subset: each must produce exactly the program and reports
  // that the same request produces alone.
  CobaltConfig Config;
  Config.Jobs = 4;
  support::Expected<CobaltModule> Module = loadModule("stdlib");
  ASSERT_TRUE(Module.ok());
  std::shared_ptr<CobaltService> Svc = CobaltService::Builder()
                                           .config(Config)
                                           .addModule(std::move(*Module))
                                           .build();
  support::Expected<ir::Program> Prog = Svc->parseProgram(R"(
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
      decl w;
      decl p;
      p := &w;
      v := b * 1;
      w := 4;
      *p := v;
      v := w;
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
  )");
  ASSERT_TRUE(Prog.ok());

  auto Request = [&](unsigned K) {
    PipelineRequest Req;
    Req.Prog = *Prog;
    Req.Jobs = K % 2;
    Req.SelectedOnly = K % 4 >= 2;
    Req.PassNames = {"taint_analysis", "const_prop", "copy_prop",
                     "dead_assign_elim"};
    return Req;
  };
  auto Outcome = [](const PipelineResponse &Resp) {
    std::string Out = ir::toString(Resp.Prog);
    emitPipelineJson(Out, Resp.Result.Reports);
    for (const engine::PassReport &R : Resp.Result.Reports)
      for (const support::Remark &Rem : R.Remarks)
        Out += "\n" + Rem.str();
    return Out;
  };

  constexpr unsigned Kinds = 4, Threads = 8, PerThread = 4;
  std::vector<std::string> Sequential;
  for (unsigned K = 0; K < Kinds; ++K) {
    PipelineResponse Resp = Svc->run(Request(K));
    ASSERT_TRUE(Resp.ok());
    ASSERT_GT(Resp.Result.Applied, 0u);
    Sequential.push_back(Outcome(Resp));
  }
  EXPECT_NE(Sequential[0], Sequential[2]); // the subset is not the suite

  std::vector<std::string> Concurrent(Threads * PerThread);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        Concurrent[T * PerThread + I] = Outcome(Svc->run(Request(T + I)));
    });
  for (std::thread &W : Workers)
    W.join();

  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned I = 0; I < PerThread; ++I)
      EXPECT_EQ(Concurrent[T * PerThread + I], Sequential[(T + I) % Kinds])
          << "thread " << T << " request " << I;
}

TEST(ServiceApi, UnprovenAnalysisGatesItsConsumers) {
  // The §6 extensible-compiler gate: load_cse is sound only if the
  // analysis defining notTainted is. Paired with an unsound producer,
  // its own proof succeeds but it must not be admitted.
  CobaltService::Builder B;
  B.addAnalysis(opts::buggyTaintAnalysis().Analysis);
  B.addOptimization(opts::loadCse());
  std::shared_ptr<CobaltService> Svc = B.build();
  CheckResponse Resp = Svc->check({});
  ASSERT_TRUE(Resp.ok());
  ASSERT_EQ(Resp.Suite.Reports.size(), 2u);

  const checker::CheckReport &Analysis = Resp.Suite.Reports[0];
  const checker::CheckReport &Rule = Resp.Suite.Reports[1];
  EXPECT_EQ(Analysis.V, checker::CheckReport::Verdict::V_Unsound);
  EXPECT_TRUE(Resp.Suite.ProvenAnalyses.empty());
  EXPECT_TRUE(Rule.Sound);
  EXPECT_EQ(Rule.Name, "load_cse");
  EXPECT_EQ(Resp.Suite.Conditional, std::vector<std::string>{"load_cse"});
  EXPECT_EQ(Resp.Suite.ProvenOptimizations.count("load_cse"), 0u);
  std::vector<std::string> Proven = Resp.Suite.provenPassNames();
  EXPECT_EQ(std::find(Proven.begin(), Proven.end(), "load_cse"),
            Proven.end());
  EXPECT_EQ(CobaltService::exitCodeFor(Resp.Suite, false), 1);
}

} // namespace
