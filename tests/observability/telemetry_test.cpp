//===- telemetry_test.cpp - Metrics, traces, spans, remarks ---------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the telemetry substrate (DESIGN.md §9): the sharded
/// MetricsRegistry and its byte-stable JSON dump, the TraceRecorder's
/// Chrome trace output, RAII TraceSpan nesting and the ambient
/// TelemetryScope, the Remark rendering the CLI's --remarks stream
/// relies on, and the JSON string escaper the dumps share.
///
//===----------------------------------------------------------------------===//

#include "support/JsonEscape.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

using namespace cobalt;
using namespace cobalt::support;

namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry M;
  EXPECT_EQ(M.counter("a"), 0u);
  M.add("a");
  M.add("a", 4);
  M.add("b", 2);
  EXPECT_EQ(M.counter("a"), 5u);
  EXPECT_EQ(M.counter("b"), 2u);
  auto All = M.counters();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All["a"], 5u);
  EXPECT_EQ(All["b"], 2u);
}

TEST(MetricsRegistryTest, Gauges) {
  MetricsRegistry M;
  M.gaugeSet("depth", 7);
  M.gaugeSet("depth", 3);
  EXPECT_EQ(M.gauge("depth"), 3);
  M.gaugeMax("high", 3);
  M.gaugeMax("high", 9);
  M.gaugeMax("high", 5);
  EXPECT_EQ(M.gauge("high"), 9);
}

TEST(MetricsRegistryTest, Histograms) {
  MetricsRegistry M;
  EXPECT_EQ(M.histogram("lat").Count, 0u);
  M.observe("lat", 2.0);
  M.observe("lat", 0.5);
  M.observe("lat", 4.0);
  HistogramStats H = M.histogram("lat");
  EXPECT_EQ(H.Count, 3u);
  EXPECT_DOUBLE_EQ(H.Sum, 6.5);
  EXPECT_DOUBLE_EQ(H.Min, 0.5);
  EXPECT_DOUBLE_EQ(H.Max, 4.0);
}

TEST(MetricsRegistryTest, PercentilesFromLogBuckets) {
  MetricsRegistry M;
  // Empty histogram: percentiles are 0, not NaN.
  EXPECT_DOUBLE_EQ(M.histogram("none").p50(), 0.0);
  // 100 observations 1..100 ms: the log-bucket estimate must land
  // within one sub-bucket (~19%) of the exact order statistic, and the
  // percentiles must be monotone and clamped into [Min, Max].
  for (int I = 1; I <= 100; ++I)
    M.observe("lat", static_cast<double>(I));
  HistogramStats H = M.histogram("lat");
  EXPECT_GT(H.p50(), 50.0 * 0.8);
  EXPECT_LT(H.p50(), 50.0 * 1.25);
  EXPECT_GT(H.p99(), 99.0 * 0.8);
  EXPECT_LE(H.p99(), 100.0);
  EXPECT_LE(H.p50(), H.p90());
  EXPECT_LE(H.p90(), H.p99());
  EXPECT_GE(H.p50(), H.Min);
  EXPECT_LE(H.p99(), H.Max);
}
TEST(MetricsRegistryTest, PercentileSingleObservationIsExact) {
  // One sample: every percentile is that sample (clamping to Min==Max).
  MetricsRegistry M;
  M.observe("lat", 2655.5);
  HistogramStats H = M.histogram("lat");
  EXPECT_DOUBLE_EQ(H.p50(), 2655.5);
  EXPECT_DOUBLE_EQ(H.p99(), 2655.5);
}

TEST(MetricsRegistryTest, HistogramJsonCarriesPercentiles) {
  MetricsRegistry M;
  M.observe("h", 1.5);
  std::string J = M.json();
  EXPECT_NE(J.find("\"p50\": "), std::string::npos);
  EXPECT_NE(J.find("\"p90\": "), std::string::npos);
  EXPECT_NE(J.find("\"p99\": "), std::string::npos);
  // The pre-percentile keys survive: goldens keyed on them still hold.
  EXPECT_NE(J.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"sum\": 1.500000"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonIsByteStableAndSorted) {
  // Two registries reaching the same state through different insertion
  // orders must serialize identically — the golden-file contract.
  MetricsRegistry A, B;
  A.add("zeta", 1);
  A.add("alpha", 2);
  A.gaugeSet("g", -3);
  A.observe("h", 1.5);
  B.observe("h", 1.5);
  B.gaugeSet("g", -3);
  B.add("alpha", 2);
  B.add("zeta", 1);
  EXPECT_EQ(A.json(), B.json());
  std::string J = A.json();
  EXPECT_LT(J.find("\"alpha\""), J.find("\"zeta\""));
  EXPECT_NE(J.find("\"g\": -3"), std::string::npos);
  EXPECT_NE(J.find("\"sum\": 1.500000"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyJsonShape) {
  MetricsRegistry M;
  std::string J = M.json();
  EXPECT_NE(J.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(J.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(J.find("\"histograms\": {}"), std::string::npos);
}

TEST(TraceRecorderTest, RecordsAndSerializes) {
  TraceRecorder R;
  TraceEvent E;
  E.Cat = "checker";
  E.Name = "obligation";
  E.Lane = 2;
  E.StartUs = 10;
  E.DurUs = 5;
  E.Args.emplace_back("verdict", "proven");
  R.record(E);
  EXPECT_EQ(R.eventCount(), 1u);

  std::string J = R.json();
  // Metadata rows name every lane up to the highest used one.
  EXPECT_NE(J.find("\"name\": \"driver\""), std::string::npos);
  EXPECT_NE(J.find("\"name\": \"worker-1\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"cat\": \"checker\""), std::string::npos);
  EXPECT_NE(J.find("\"verdict\": \"proven\""), std::string::npos);
  EXPECT_NE(J.find("\"tid\": 2"), std::string::npos);
}

TEST(TraceRecorderTest, LaneIsThreadLocal) {
  EXPECT_EQ(TraceRecorder::currentLane(), 0u);
  std::thread T([] {
    EXPECT_EQ(TraceRecorder::currentLane(), 0u);
    TraceRecorder::setCurrentLane(3);
    EXPECT_EQ(TraceRecorder::currentLane(), 3u);
  });
  T.join();
  // The other thread's lane never leaked into this one.
  EXPECT_EQ(TraceRecorder::currentLane(), 0u);
}

TEST(TraceSpanTest, DisabledWithoutAmbientTelemetry) {
  ASSERT_EQ(Telemetry::active(), nullptr);
  TraceSpan Span("cat", "name");
  EXPECT_FALSE(Span.enabled());
  Span.arg("k", std::string("v")); // must be a no-op, not a crash
}

TEST(TraceSpanTest, RecordsUnderScope) {
  Telemetry T;
  {
    TelemetryScope Scope(&T);
    TraceSpan Outer("test", "outer");
    EXPECT_TRUE(Outer.enabled());
    Outer.arg("k", uint64_t(42));
    { TraceSpan Inner("test", "inner"); }
  }
  ASSERT_EQ(T.Trace.eventCount(), 2u);
  auto Events = T.Trace.snapshot();
  // Inner destructs first, so it is recorded first.
  EXPECT_STREQ(Events[0].Name, "inner");
  EXPECT_STREQ(Events[1].Name, "outer");
  ASSERT_EQ(Events[1].Args.size(), 1u);
  EXPECT_EQ(Events[1].Args[0].second, "42");
  // Nesting invariant the trace linter checks: inner ⊆ outer.
  EXPECT_GE(Events[0].StartUs, Events[1].StartUs);
  EXPECT_LE(Events[0].StartUs + Events[0].DurUs,
            Events[1].StartUs + Events[1].DurUs);
}

TEST(TraceSpanTest, TraceEnabledFalseSkipsSpansButNotMetrics) {
  Telemetry T;
  T.TraceEnabled = false;
  TelemetryScope Scope(&T);
  { TraceSpan Span("test", "span"); }
  metricAdd("still.counted");
  EXPECT_EQ(T.Trace.eventCount(), 0u);
  EXPECT_EQ(T.Metrics.counter("still.counted"), 1u);
}

TEST(TelemetryScopeTest, InstallsAndRestores) {
  EXPECT_EQ(Telemetry::active(), nullptr);
  metricAdd("dropped"); // no ambient sink: silently dropped
  Telemetry Outer, Inner;
  {
    TelemetryScope S1(&Outer);
    EXPECT_EQ(Telemetry::active(), &Outer);
    metricAdd("m");
    {
      TelemetryScope S2(&Inner);
      EXPECT_EQ(Telemetry::active(), &Inner);
      metricAdd("m");
    }
    EXPECT_EQ(Telemetry::active(), &Outer);
    {
      // nullptr scope is a no-op install: the outer session stays live.
      TelemetryScope S3(nullptr);
      EXPECT_EQ(Telemetry::active(), &Outer);
      metricAdd("m");
    }
  }
  EXPECT_EQ(Telemetry::active(), nullptr);
  EXPECT_EQ(Outer.Metrics.counter("m"), 2u);
  EXPECT_EQ(Inner.Metrics.counter("m"), 1u);
}

TEST(TraceIdTest, MintedIdsAreNonZeroAndDistinct) {
  uint64_t A = mintTraceId();
  uint64_t B = mintTraceId();
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
}

TEST(TraceIdTest, ScopeTagsSpansAndRestores) {
  Telemetry T;
  TelemetryScope Scope(&T);
  EXPECT_EQ(TraceRecorder::currentTraceId(), 0u);
  {
    TraceIdScope Outer(0x1111);
    { TraceSpan S("test", "outer-span"); }
    {
      // Nested requests attribute to the innermost ID.
      TraceIdScope Inner(0x2222);
      EXPECT_EQ(TraceRecorder::currentTraceId(), 0x2222u);
      { TraceSpan S("test", "inner-span"); }
    }
    EXPECT_EQ(TraceRecorder::currentTraceId(), 0x1111u);
  }
  EXPECT_EQ(TraceRecorder::currentTraceId(), 0u);
  auto Events = T.Trace.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].TraceId, 0x1111u); // outer-span
  EXPECT_EQ(Events[1].TraceId, 0x2222u); // inner-span
  // The ID renders as a synthetic 16-digit hex arg, never a real Arg
  // (span-set equivalence compares Args only).
  EXPECT_TRUE(Events[0].Args.empty());
  std::string J = T.Trace.json();
  EXPECT_NE(J.find("\"trace_id\": \"0000000000001111\""), std::string::npos);
}

TEST(TraceIdTest, TraceIdIsThreadLocal) {
  TraceIdScope Scope(0xABCD);
  std::thread Th([] {
    // Pool threads do not inherit the driver's ambient ID — callers
    // must re-establish it inside the task (as Soundness.cpp does).
    EXPECT_EQ(TraceRecorder::currentTraceId(), 0u);
  });
  Th.join();
}

TEST(TraceRecorderTest, SerializeImportRoundTrip) {
  // Simulates the worker fork boundary: a child recorder serializes its
  // spans with absolute timestamps; the parent imports, re-bases, and
  // stamps the worker pid.
  TraceRecorder Child;
  TraceEvent E;
  E.Cat = "checker";
  E.Name = "discharge";
  E.StartUs = 7;
  E.DurUs = 3;
  E.TraceId = 0xFEED;
  E.Args.emplace_back("ob", "assoc1");
  Child.record(E);

  TraceRecorder Parent;
  Parent.importSerialized(Child.serializeEvents(), /*Pid=*/4242);
  Parent.setProcessName(4242, "prover-worker");
  ASSERT_EQ(Parent.eventCount(), 1u);
  auto Events = Parent.snapshot();
  EXPECT_STREQ(Events[0].Name, "discharge");
  EXPECT_STREQ(Events[0].Cat, "checker");
  EXPECT_EQ(Events[0].Pid, 4242);
  EXPECT_EQ(Events[0].TraceId, 0xFEEDu);
  EXPECT_EQ(Events[0].DurUs, 3u);
  ASSERT_EQ(Events[0].Args.size(), 1u);
  EXPECT_STREQ(Events[0].Args[0].first, "ob");
  EXPECT_EQ(Events[0].Args[0].second, "assoc1");

  std::string J = Parent.json();
  EXPECT_NE(J.find("\"pid\": 4242"), std::string::npos);
  EXPECT_NE(J.find("\"prover-worker\""), std::string::npos);
  EXPECT_NE(J.find("\"process_name\""), std::string::npos);
}

TEST(TraceRecorderTest, ImportDropsMalformedLines) {
  TraceRecorder R;
  R.importSerialized("not\ta\tvalid\tline\n\ngarbage\n", /*Pid=*/7);
  EXPECT_EQ(R.eventCount(), 0u);
}

TEST(JsonEscapeTest, ShortEscapesControlBytesAndUtf8) {
  // The one escaper behind report JSON, daemon frames, metrics and trace
  // dumps, and the fuzz summary.
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(jsonEscape("\xce\xb7"), "\xce\xb7"); // UTF-8 passes through
  std::string Out = "x";
  appendJsonEscaped(Out, "\"");
  EXPECT_EQ(Out, "x\\\"");
}

TEST(MetricsRegistryTest, ConcurrentAddsAreLossless) {
  MetricsRegistry M;
  constexpr unsigned Threads = 8, PerThread = 1000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&M] {
      for (unsigned I = 0; I < PerThread; ++I) {
        M.add("shared");
        M.observe("h", 1.0);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(M.counter("shared"), uint64_t(Threads) * PerThread);
  EXPECT_EQ(M.histogram("h").Count, uint64_t(Threads) * PerThread);
}

TEST(RemarkTest, RendersStably) {
  Remark R;
  R.K = Remark::Kind::RK_Passed;
  R.Pass = "cse";
  R.Proc = "main";
  R.Node = 5;
  R.Note = "chosen and applied";
  EXPECT_EQ(R.str(), "[passed] cse @ main:5: chosen and applied");

  Remark Whole;
  Whole.K = Remark::Kind::RK_RolledBack;
  Whole.Pass = "const_prop";
  Whole.Proc = "f";
  EXPECT_EQ(Whole.str(), "[rolledback] const_prop @ f");

  Remark Missed;
  Missed.Pass = "dead_assign_elim";
  Missed.Proc = "g";
  Missed.Node = 0;
  EXPECT_EQ(Missed.str(), "[missed] dead_assign_elim @ g:0");
}

} // namespace
