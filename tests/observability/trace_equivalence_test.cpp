//===- trace_equivalence_test.cpp - Telemetry is --jobs invariant ---------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability counterpart of the pipeline's determinism promise:
/// a fixed two-pass run (const_prop + cse over the same program) must
/// produce the *same telemetry* at --jobs 1 and --jobs 4 — the same
/// span multiset (names, categories, and args; timestamps and lanes are
/// wall-clock/scheduling artifacts and are ignored), the same curated
/// counters (checker.*, engine.*, dataflow.* — threadpool.* legitimately
/// differs between inline and pooled execution), and the same remark
/// sequence. Also pinned under an injected prover stall
/// (checker.prover_stall_ms), which perturbs wall time but must not
/// perturb any deterministic telemetry.
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "ir/Printer.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using namespace cobalt;
using support::ScopedFaultPlan;

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

/// Everything deterministic one run produces.
struct RunTelemetry {
  std::vector<std::string> Spans;      ///< "cat/name{k=v,...}", sorted.
  std::map<std::string, uint64_t> Counters; ///< Curated subset.
  std::vector<std::string> Remarks;    ///< In delivery order.
  std::string OptimizedProgram;
};

bool curated(const std::string &Name) {
  return Name.rfind("checker.", 0) == 0 || Name.rfind("engine.", 0) == 0 ||
         Name.rfind("dataflow.", 0) == 0;
}

RunTelemetry runOnce(unsigned Jobs) {
  api::CobaltConfig Config;
  Config.Jobs = Jobs;
  Config.Telemetry = true;
  std::shared_ptr<api::CobaltService> Svc =
      api::CobaltService::Builder()
          .config(Config)
          .addOptimization(opts::constProp())
          .addOptimization(opts::cse())
          .build();

  RunTelemetry Out;
  api::CheckResponse Gate = Svc->check(api::CheckRequest{});
  EXPECT_TRUE(Gate.Suite.allSound());
  for (const support::Remark &R : Gate.Remarks)
    Out.Remarks.push_back(R.str());

  auto Prog = Svc->parseProgram(ProgramSource);
  EXPECT_TRUE(static_cast<bool>(Prog));
  api::PipelineRequest Req;
  Req.Prog = std::move(*Prog);
  Req.PassNames = Gate.Suite.provenPassNames();
  Req.SelectedOnly = true;
  api::PipelineResponse Run = Svc->run(std::move(Req));
  EXPECT_GT(Run.Result.Applied, 0u);
  for (const engine::PassReport &R : Run.Result.Reports)
    for (const support::Remark &Rem : R.Remarks)
      Out.Remarks.push_back(Rem.str());
  Out.OptimizedProgram = ir::toString(Run.Prog);

  support::Telemetry *T = Svc->telemetry();
  EXPECT_NE(T, nullptr);
  for (const support::TraceEvent &E : T->Trace.snapshot()) {
    std::string Key = std::string(E.Cat) + "/" + E.Name + "{";
    for (const auto &[K, V] : E.Args)
      Key += std::string(K) + "=" + V + ",";
    Key += "}";
    Out.Spans.push_back(std::move(Key));
  }
  std::sort(Out.Spans.begin(), Out.Spans.end());

  for (const auto &[Name, Value] : T->Metrics.counters())
    if (curated(Name))
      Out.Counters.emplace(Name, Value);
  return Out;
}

void expectSameTelemetry(const RunTelemetry &A, const RunTelemetry &B) {
  EXPECT_EQ(A.OptimizedProgram, B.OptimizedProgram);
  EXPECT_EQ(A.Remarks, B.Remarks);
  EXPECT_EQ(A.Counters, B.Counters);
  EXPECT_EQ(A.Spans, B.Spans);
}

TEST(TraceEquivalenceTest, SameSpanSetAcrossJobWidths) {
  RunTelemetry Sequential = runOnce(1);
  RunTelemetry Parallel = runOnce(4);

  // Sanity: the run actually produced telemetry worth comparing.
  EXPECT_FALSE(Sequential.Spans.empty());
  EXPECT_GT(Sequential.Counters.at("checker.obligations"), 0u);
  EXPECT_GT(Sequential.Counters.at("engine.rewrites"), 0u);
  EXPECT_GT(Sequential.Counters.at("dataflow.fixpoint_iters"), 0u);
  EXPECT_FALSE(Sequential.Remarks.empty());

  expectSameTelemetry(Sequential, Parallel);
}

TEST(TraceEquivalenceTest, SameSpanSetUnderInjectedProverStall) {
  // The stall payload delays every prover call by a fixed wall amount:
  // span durations change, deterministic telemetry must not.
  ScopedFaultPlan Plan("checker.prover_stall_ms=15");
  RunTelemetry Sequential = runOnce(1);
  RunTelemetry Parallel = runOnce(4);
  EXPECT_FALSE(Sequential.Spans.empty());
  expectSameTelemetry(Sequential, Parallel);
}

TEST(TraceEquivalenceTest, StallDoesNotChangeSpanSetEither) {
  // Cross-check: the faulted run and the clean run also agree on the
  // span *set* — the stall is invisible outside of wall time.
  RunTelemetry Clean = runOnce(1);
  RunTelemetry Stalled = [] {
    ScopedFaultPlan Plan("checker.prover_stall_ms=15");
    return runOnce(1);
  }();
  expectSameTelemetry(Clean, Stalled);
}

} // namespace
