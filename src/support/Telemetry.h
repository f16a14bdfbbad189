//===- Telemetry.h - Metrics, tracing, and optimization remarks -*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate of the pipeline (DESIGN.md §9). Three
/// cooperating pieces:
///
///  * **MetricsRegistry** — named counters / gauges / histograms behind a
///    mutex-sharded table (16 shards keyed by name hash, so concurrent
///    obligation jobs rarely contend). Dumps are byte-stable: the JSON
///    emitter merges all shards into one name-sorted view with fixed
///    formatting, so tests can golden-compare metric files.
///
///  * **TraceRecorder / TraceSpan** — Chrome `trace_event` spans
///    (`"ph":"X"` complete events). Every ThreadPool worker is one trace
///    lane (`tid` = worker index + 1; the driving thread is lane 0), and
///    spans nest via scoped RAII `TraceSpan` objects. Load the output in
///    `chrome://tracing` or https://ui.perfetto.dev.
///
///  * **Remark** — LLVM-style optimization remarks (passed / missed /
///    rolled-back, with rule name, CFG node, and the `choose` decision).
///    Remarks are plain data carried inside `engine::PassReport` — they
///    flow whether or not a session is installed, and their ordering is
///    the deterministic report order, not event arrival order.
///
/// Requests are stitched together by 64-bit **trace IDs** (mintTraceId),
/// carried thread-locally (TraceIdScope), across the prover-worker fork
/// boundary in request frames, and over the wire in protocol frames.
/// Spans record the ambient ID in a dedicated TraceEvent field — never
/// in args, which must stay identical across runs and --jobs widths.
///
/// ## The disabled fast path
///
/// Telemetry is ambient: one process-wide `Telemetry *` installed by a
/// `TelemetryScope` (a CobaltService with telemetry on installs its own
/// session around every request). Every instrumentation site performs
/// exactly one relaxed atomic load and one branch when no telemetry is
/// installed — no string building, no allocation, no locking. A
/// `TraceSpan` constructed while disabled holds a null recorder and its
/// destructor is a single null test. Span names are static strings;
/// anything dynamic goes into args, which are only materialized behind
/// the `enabled()` branch.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_TELEMETRY_H
#define COBALT_SUPPORT_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cobalt {
namespace support {

//===----------------------------------------------------------------------===//
// Optimization remarks (plain data).
//===----------------------------------------------------------------------===//

/// One optimization remark: what a rule did (or did not do) at a CFG
/// node, in the style of LLVM's -Rpass/-Rpass-missed streams.
struct Remark {
  enum class Kind {
    RK_Passed,     ///< The rule rewrote this node.
    RK_Missed,     ///< Legal site not taken (choose declined, quarantine,
                   ///< unproven definition skipped, ...).
    RK_RolledBack, ///< The pass failed and its rewrites were undone.
  };

  Kind K = Kind::RK_Missed;
  std::string Pass; ///< Rule / pass name.
  std::string Proc; ///< Procedure the remark is about.
  int Node = -1;    ///< CFG node index; -1 = whole procedure.
  std::string Note; ///< The `choose` decision / failure reason.

  const char *kindName() const {
    switch (K) {
    case Kind::RK_Passed:
      return "passed";
    case Kind::RK_Missed:
      return "missed";
    case Kind::RK_RolledBack:
      return "rolledback";
    }
    return "missed";
  }

  /// Renders as "[passed] cse @ main:5: note" (stable; tests rely on it).
  std::string str() const;
};

/// Aggregate statistics of one histogram metric. Beyond count/sum/min/
/// max, samples land in fixed log-spaced buckets (HDR-histogram style:
/// four sub-buckets per power of two, spanning 1 µs .. ~10⁶ s of
/// whatever unit the caller observes), from which percentiles are
/// estimated as the geometric midpoint of the covering bucket — a
/// bounded ~19% relative error at any sample count, with no per-sample
/// allocation.
struct HistogramStats {
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;

  static constexpr unsigned BucketCount = 160; ///< 40 octaves × 4.
  static constexpr double BucketFloor = 1e-6;  ///< Lower bound of bucket 0.
  std::array<uint32_t, BucketCount> Buckets{};

  /// The bucket a sample falls into (clamped at both ends).
  static unsigned bucketFor(double Value);
  /// Geometric bounds of bucket \p Index: [lower(I), lower(I+1)).
  static double bucketLower(unsigned Index);

  /// Estimated value at quantile \p Q in (0, 1], clamped into
  /// [Min, Max] so a single-sample histogram reports that sample.
  double percentile(double Q) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }
};

/// Mints a process-unique 64-bit request trace ID (never 0): a splitmix
/// of a process-global counter, the pid, and the monotonic clock.
/// Independent of any session — protocol frames carry trace IDs even
/// when the local process records nothing.
uint64_t mintTraceId();

//===----------------------------------------------------------------------===//
// MetricsRegistry.
//===----------------------------------------------------------------------===//

/// Named counters, gauges, and histograms. Thread-safe; writes shard by
/// name hash so parallel jobs updating different metrics rarely share a
/// lock. Reads (the accessors and json()) take every shard lock in turn
/// and present one merged, name-sorted view.
class MetricsRegistry {
public:
  /// Counter: monotonically increasing u64. Created on first touch.
  void add(std::string_view Name, uint64_t Delta = 1);

  /// Gauge: last-write-wins level (queue depth, bytes resident).
  void gaugeSet(std::string_view Name, int64_t Value);
  /// Gauge variant keeping the maximum ever observed (high-water marks).
  void gaugeMax(std::string_view Name, int64_t Value);

  /// Histogram: count/sum/min/max plus log-bucket percentiles.
  void observe(std::string_view Name, double Value);

  /// Point reads (0 / empty stats when the metric was never touched).
  uint64_t counter(std::string_view Name) const;
  int64_t gauge(std::string_view Name) const;
  HistogramStats histogram(std::string_view Name) const;

  /// All counters, merged and name-sorted (for curated golden compares).
  std::map<std::string, uint64_t> counters() const;

  /// Byte-stable JSON dump:
  /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
  /// every section sorted by name and numbers in fixed formatting;
  /// histogram objects carry count/sum/min/max and p50/p90/p99.
  /// Counter values are deterministic across `--jobs` widths (atomic
  /// adds commute); histogram sums and percentiles carry wall-clock
  /// noise and are for humans, not golden files.
  std::string json() const;

private:
  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable std::mutex M;
    std::map<std::string, uint64_t, std::less<>> Counters;
    std::map<std::string, int64_t, std::less<>> Gauges;
    std::map<std::string, HistogramStats, std::less<>> Histograms;
  };

  Shard &shardFor(std::string_view Name);
  const Shard &shardFor(std::string_view Name) const {
    return const_cast<MetricsRegistry *>(this)->shardFor(Name);
  }

  std::array<Shard, NumShards> Shards;
};

//===----------------------------------------------------------------------===//
// TraceRecorder.
//===----------------------------------------------------------------------===//

/// One completed span. Args are (key, value) string pairs recorded in
/// insertion order; values must be deterministic (verdicts, counts) —
/// wall time belongs in StartUs/DurUs, which span-set tests ignore.
/// Request identity lives in the dedicated TraceId/Pid/Linked fields,
/// NOT in Args: trace IDs are minted per request and pids per fork, so
/// putting them in Args would break the --jobs span-set equivalence
/// contract. The JSON emitter renders them as args for the viewer.
struct TraceEvent {
  const char *Cat = "";    ///< Subsystem ("checker", "engine", ...).
  const char *Name = "";   ///< Span name (static; data goes in Args).
  unsigned Lane = 0;       ///< tid: 0 = driver, 1..N = pool workers.
  uint64_t StartUs = 0;    ///< Microseconds since recorder epoch.
  uint64_t DurUs = 0;
  uint64_t TraceId = 0;    ///< Request trace ID (0 = unattributed).
  int Pid = 0;             ///< Originating process; 0 = this process.
  std::vector<uint64_t> Linked; ///< Follower trace IDs (dedup leaders).
  std::vector<std::pair<const char *, std::string>> Args;
};

/// Collects spans and serializes them as Chrome trace JSON. Appends are
/// mutex-serialized (a span ends at most once per prover call or pass —
/// far too coarse to contend); the disabled fast path never reaches the
/// recorder at all.
class TraceRecorder {
public:
  TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  void record(TraceEvent E);

  /// Microseconds since this recorder was created (span timestamps).
  uint64_t nowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  std::vector<TraceEvent> snapshot() const;
  size_t eventCount() const;

  /// Chrome trace_event JSON: `{"traceEvents": [...]}` with one
  /// complete ("ph":"X") event per span plus thread_name metadata rows
  /// naming each lane and process_name rows naming each process.
  /// Events whose Pid is 0 belong to this process and render as pid 1;
  /// imported events keep their real pid, so a merged multi-process
  /// trace shows one named track group per prover worker.
  std::string json() const;

  /// This recorder's epoch in microseconds on the shared monotonic
  /// clock. Serialized events carry absolute timestamps so a forked
  /// child's spans re-base correctly into the parent's timeline.
  uint64_t epochUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Epoch.time_since_epoch())
            .count());
  }

  /// Line-oriented dump of every event with absolute (epoch-free)
  /// timestamps — the cross-process shipping format for worker span
  /// buffers. Inverse of importSerialized.
  std::string serializeEvents() const;

  /// Merges events serialized by another process's recorder, stamping
  /// them with \p Pid and re-basing timestamps onto this epoch.
  /// Malformed lines are dropped (worker frames are not trusted).
  void importSerialized(std::string_view Text, int Pid);

  /// Names a process for the merged trace's process_name metadata row
  /// (pid 0/1 = this process, defaults to "cobalt").
  void setProcessName(int Pid, std::string Name);

  /// The calling thread's lane id (thread-local; 0 unless a ThreadPool
  /// worker tagged the thread via setCurrentLane).
  static unsigned currentLane();
  static void setCurrentLane(unsigned Lane);

  /// The calling thread's ambient request trace ID (thread-local; 0 =
  /// no request in scope). Spans capture it at construction. Install
  /// via TraceIdScope rather than calling setCurrentTraceId directly.
  static uint64_t currentTraceId();
  static void setCurrentTraceId(uint64_t Id);

private:
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<TraceEvent> Events;
  std::map<int, std::string> ProcessNames;
};

/// RAII installer of the calling thread's ambient trace ID. The scope
/// restores the previous ID, so nested requests (a pipeline that checks)
/// attribute inner spans to the innermost request.
class TraceIdScope {
public:
  explicit TraceIdScope(uint64_t Id)
      : Prev(TraceRecorder::currentTraceId()) {
    TraceRecorder::setCurrentTraceId(Id);
  }
  ~TraceIdScope() { TraceRecorder::setCurrentTraceId(Prev); }
  TraceIdScope(const TraceIdScope &) = delete;
  TraceIdScope &operator=(const TraceIdScope &) = delete;

private:
  uint64_t Prev;
};

//===----------------------------------------------------------------------===//
// Telemetry: the ambient sink.
//===----------------------------------------------------------------------===//

/// One telemetry session: a metrics registry plus a trace recorder.
/// Install with TelemetryScope; instrumentation sites reach it through
/// Telemetry::active(). Remarks do NOT flow through here — they ride in
/// PassReports and CheckResponses, in deterministic report order.
class Telemetry {
public:
  MetricsRegistry Metrics;
  TraceRecorder Trace;
  /// Span recording can be switched off independently (metrics-only
  /// sessions skip the span bookkeeping entirely).
  bool TraceEnabled = true;

  /// The installed instance, or nullptr (the common, zero-cost case).
  static Telemetry *active() {
    return Active.load(std::memory_order_relaxed);
  }

private:
  static std::atomic<Telemetry *> Active;
  friend class TelemetryScope;
};

/// RAII installer for the ambient Telemetry. Passing nullptr is a no-op
/// (an enclosing scope, e.g. an embedder's own session, stays active).
/// Scopes are process-global: one driving thread installs, pool workers
/// observe. Concurrent drivers must install the same session (cobaltd
/// holds its service's session for the daemon's whole lifetime).
class TelemetryScope {
public:
  explicit TelemetryScope(Telemetry *T) : Installed(T != nullptr) {
    if (Installed) {
      Prev = Telemetry::Active.load(std::memory_order_relaxed);
      Telemetry::Active.store(T, std::memory_order_relaxed);
    }
  }
  ~TelemetryScope() {
    if (Installed)
      Telemetry::Active.store(Prev, std::memory_order_relaxed);
  }
  TelemetryScope(const TelemetryScope &) = delete;
  TelemetryScope &operator=(const TelemetryScope &) = delete;

private:
  Telemetry *Prev = nullptr;
  bool Installed;
};

//===----------------------------------------------------------------------===//
// TraceSpan.
//===----------------------------------------------------------------------===//

/// Scoped span: starts timing at construction, records a complete event
/// at destruction on the calling thread's lane. Constructed with static
/// strings only; all dynamic data goes through arg(), whose cost is
/// behind the enabled() branch at the call site.
class TraceSpan {
public:
  TraceSpan(const char *Cat, const char *Name) {
    Telemetry *T = Telemetry::active();
    if (T && T->TraceEnabled) {
      Rec = &T->Trace;
      E.Cat = Cat;
      E.Name = Name;
      E.Lane = TraceRecorder::currentLane();
      E.TraceId = TraceRecorder::currentTraceId();
      E.StartUs = Rec->nowUs();
    }
  }
  ~TraceSpan() {
    if (Rec) {
      E.DurUs = Rec->nowUs() - E.StartUs;
      Rec->record(std::move(E));
    }
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  bool enabled() const { return Rec != nullptr; }

  /// Attaches a (key, value) arg; no-op (and no string is copied) when
  /// the span is disabled. Guard expensive value construction with
  /// enabled() at the call site.
  void arg(const char *Key, std::string Value) {
    if (Rec)
      E.Args.emplace_back(Key, std::move(Value));
  }
  void arg(const char *Key, uint64_t Value) {
    if (Rec)
      E.Args.emplace_back(Key, std::to_string(Value));
  }

  /// Tags this span with follower trace IDs (the dedup leader records
  /// everyone it proved for). A dedicated field, not an arg: follower
  /// sets vary run to run, and args must stay jobs-invariant.
  void linked(std::vector<uint64_t> Ids) {
    if (Rec)
      E.Linked = std::move(Ids);
  }

private:
  TraceRecorder *Rec = nullptr;
  TraceEvent E;
};

//===----------------------------------------------------------------------===//
// One-line instrumentation helpers (the metric fast path).
//===----------------------------------------------------------------------===//

inline void metricAdd(std::string_view Name, uint64_t Delta = 1) {
  if (Telemetry *T = Telemetry::active())
    T->Metrics.add(Name, Delta);
}
inline void metricObserve(std::string_view Name, double Value) {
  if (Telemetry *T = Telemetry::active())
    T->Metrics.observe(Name, Value);
}
inline void metricGaugeSet(std::string_view Name, int64_t Value) {
  if (Telemetry *T = Telemetry::active())
    T->Metrics.gaugeSet(Name, Value);
}
inline void metricGaugeMax(std::string_view Name, int64_t Value) {
  if (Telemetry *T = Telemetry::active())
    T->Metrics.gaugeMax(Name, Value);
}

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_TELEMETRY_H
