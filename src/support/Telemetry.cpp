//===- Telemetry.cpp ------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/JsonEscape.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_set>

#include <unistd.h>

using namespace cobalt;
using namespace cobalt::support;

//===----------------------------------------------------------------------===//
// Remark.
//===----------------------------------------------------------------------===//

std::string Remark::str() const {
  std::ostringstream Out;
  Out << '[' << kindName() << "] " << Pass << " @ " << Proc;
  if (Node >= 0)
    Out << ':' << Node;
  if (!Note.empty())
    Out << ": " << Note;
  return Out.str();
}

//===----------------------------------------------------------------------===//
// HistogramStats buckets and trace-ID minting.
//===----------------------------------------------------------------------===//

unsigned HistogramStats::bucketFor(double Value) {
  if (!(Value > BucketFloor))
    return 0;
  double L = std::log2(Value / BucketFloor) * 4.0;
  if (!(L < BucketCount - 1))
    return BucketCount - 1;
  return static_cast<unsigned>(L);
}

double HistogramStats::bucketLower(unsigned Index) {
  return BucketFloor * std::exp2(static_cast<double>(Index) / 4.0);
}

double HistogramStats::percentile(double Q) const {
  if (Count == 0)
    return 0.0;
  // 1-based rank of the sample at quantile Q; walk the cumulative
  // counts to its bucket and report the bucket's geometric midpoint,
  // clamped into [Min, Max] so degenerate histograms stay exact.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  Rank = std::max<uint64_t>(1, std::min(Rank, Count));
  uint64_t Cum = 0;
  unsigned Bucket = BucketCount - 1;
  for (unsigned I = 0; I < BucketCount; ++I) {
    Cum += Buckets[I];
    if (Cum >= Rank) {
      Bucket = I;
      break;
    }
  }
  double Estimate =
      std::sqrt(bucketLower(Bucket) * bucketLower(Bucket + 1));
  return std::min(std::max(Estimate, Min), Max);
}

uint64_t support::mintTraceId() {
  static std::atomic<uint64_t> Counter{0};
  uint64_t X = Counter.fetch_add(1, std::memory_order_relaxed) + 1;
  X ^= static_cast<uint64_t>(::getpid()) << 32;
  X ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // splitmix64 finalizer: counter/pid/clock bits end up well mixed, so
  // concurrent daemons and rapid-fire clients cannot collide by pattern.
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X ? X : 1;
}

namespace {

/// Fixed-format double: histograms dump with 6 decimal places so the
/// rendering never depends on locale or shortest-round-trip quirks.
std::string fixedDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// MetricsRegistry.
//===----------------------------------------------------------------------===//

MetricsRegistry::Shard &MetricsRegistry::shardFor(std::string_view Name) {
  return Shards[std::hash<std::string_view>{}(Name) % NumShards];
}

void MetricsRegistry::add(std::string_view Name, uint64_t Delta) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Counters.find(Name);
  if (It == S.Counters.end())
    S.Counters.emplace(std::string(Name), Delta);
  else
    It->second += Delta;
}

void MetricsRegistry::gaugeSet(std::string_view Name, int64_t Value) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Gauges.find(Name);
  if (It == S.Gauges.end())
    S.Gauges.emplace(std::string(Name), Value);
  else
    It->second = Value;
}

void MetricsRegistry::gaugeMax(std::string_view Name, int64_t Value) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Gauges.find(Name);
  if (It == S.Gauges.end())
    S.Gauges.emplace(std::string(Name), Value);
  else
    It->second = std::max(It->second, Value);
}

void MetricsRegistry::observe(std::string_view Name, double Value) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Histograms.find(Name);
  if (It == S.Histograms.end()) {
    HistogramStats H;
    H.Count = 1;
    H.Sum = H.Min = H.Max = Value;
    ++H.Buckets[HistogramStats::bucketFor(Value)];
    S.Histograms.emplace(std::string(Name), H);
    return;
  }
  HistogramStats &H = It->second;
  ++H.Count;
  H.Sum += Value;
  H.Min = std::min(H.Min, Value);
  H.Max = std::max(H.Max, Value);
  ++H.Buckets[HistogramStats::bucketFor(Value)];
}

uint64_t MetricsRegistry::counter(std::string_view Name) const {
  const Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : It->second;
}

int64_t MetricsRegistry::gauge(std::string_view Name) const {
  const Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Gauges.find(Name);
  return It == S.Gauges.end() ? 0 : It->second;
}

HistogramStats MetricsRegistry::histogram(std::string_view Name) const {
  const Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Histograms.find(Name);
  return It == S.Histograms.end() ? HistogramStats() : It->second;
}

std::map<std::string, uint64_t> MetricsRegistry::counters() const {
  std::map<std::string, uint64_t> All;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    All.insert(S.Counters.begin(), S.Counters.end());
  }
  return All;
}

std::string MetricsRegistry::json() const {
  // Merge every shard under its lock; std::map keeps each section
  // name-sorted, making the dump byte-stable for a given metric state.
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, HistogramStats> Histograms;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Counters.insert(S.Counters.begin(), S.Counters.end());
    Gauges.insert(S.Gauges.begin(), S.Gauges.end());
    Histograms.insert(S.Histograms.begin(), S.Histograms.end());
  }

  std::string Out;
  Out += "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"";
    appendJsonEscaped(Out, Name);
    Out += "\": " + std::to_string(Value);
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"";
    appendJsonEscaped(Out, Name);
    Out += "\": " + std::to_string(Value);
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"";
    appendJsonEscaped(Out, Name);
    Out += "\": {\"count\": " + std::to_string(H.Count) +
           ", \"sum\": " + fixedDouble(H.Sum) +
           ", \"min\": " + fixedDouble(H.Min) +
           ", \"max\": " + fixedDouble(H.Max) +
           ", \"p50\": " + fixedDouble(H.p50()) +
           ", \"p90\": " + fixedDouble(H.p90()) +
           ", \"p99\": " + fixedDouble(H.p99()) + "}";
  }
  Out += First ? "}\n" : "\n  }\n";
  Out += "}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// TraceRecorder.
//===----------------------------------------------------------------------===//

namespace {
thread_local unsigned CurrentLaneTLS = 0;
thread_local uint64_t CurrentTraceIdTLS = 0;

/// Interns a deserialized cat/name/arg-key into process-lifetime
/// storage: TraceEvent carries `const char *` for the static-string
/// common case, and imported worker strings must live as long.
const char *internedString(const std::string &S) {
  static std::mutex PoolM;
  static std::unordered_set<std::string> Pool;
  std::lock_guard<std::mutex> Lock(PoolM);
  return Pool.insert(S).first->c_str();
}

/// Escapes tab/newline/backslash so serialized span fields survive the
/// line- and tab-delimited shipping format.
std::string escapeField(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string unescapeField(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 >= S.size()) {
      Out += S[I];
      continue;
    }
    switch (S[++I]) {
    case 't':
      Out += '\t';
      break;
    case 'n':
      Out += '\n';
      break;
    default:
      Out += S[I];
    }
  }
  return Out;
}

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

void splitFields(std::string_view Line, std::vector<std::string> &Out) {
  Out.clear();
  size_t Start = 0;
  // Escaping guarantees no raw tabs inside a field, so a flat split is
  // exact.
  for (size_t I = 0; I <= Line.size(); ++I) {
    if (I == Line.size() || Line[I] == '\t') {
      Out.push_back(unescapeField(Line.substr(Start, I - Start)));
      Start = I + 1;
    }
  }
}

} // namespace

unsigned TraceRecorder::currentLane() { return CurrentLaneTLS; }
void TraceRecorder::setCurrentLane(unsigned Lane) { CurrentLaneTLS = Lane; }
uint64_t TraceRecorder::currentTraceId() { return CurrentTraceIdTLS; }
void TraceRecorder::setCurrentTraceId(uint64_t Id) {
  CurrentTraceIdTLS = Id;
}

void TraceRecorder::record(TraceEvent E) {
  std::lock_guard<std::mutex> Lock(M);
  Events.push_back(std::move(E));
}

void TraceRecorder::setProcessName(int Pid, std::string Name) {
  std::lock_guard<std::mutex> Lock(M);
  ProcessNames[Pid] = std::move(Name);
}

std::string TraceRecorder::serializeEvents() const {
  // Timestamps ship as absolute microseconds on the shared monotonic
  // clock (epoch + relative): the importer re-bases onto its own epoch,
  // which started earlier in the parent, so spans land in the right
  // place on the merged timeline. Linked IDs are a leader-side notion
  // and do not ship.
  std::vector<TraceEvent> Snapshot = snapshot();
  uint64_t Base = epochUs();
  std::string Out;
  for (const TraceEvent &E : Snapshot) {
    Out += escapeField(E.Cat);
    Out += '\t';
    Out += escapeField(E.Name);
    Out += '\t';
    Out += std::to_string(E.Lane);
    Out += '\t';
    Out += std::to_string(Base + E.StartUs);
    Out += '\t';
    Out += std::to_string(E.DurUs);
    Out += '\t';
    Out += hex16(E.TraceId);
    for (const auto &[Key, Value] : E.Args) {
      Out += '\t';
      Out += escapeField(Key);
      Out += '\t';
      Out += escapeField(Value);
    }
    Out += '\n';
  }
  return Out;
}

void TraceRecorder::importSerialized(std::string_view Text, int Pid) {
  uint64_t Base = epochUs();
  std::vector<std::string> Fields;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos)
      Eol = Text.size();
    std::string_view Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty())
      continue;
    splitFields(Line, Fields);
    // cat, name, lane, abs-start, dur, trace-id, then key/value pairs.
    if (Fields.size() < 6 || (Fields.size() - 6) % 2 != 0)
      continue; // worker frames are not trusted: drop, don't throw
    TraceEvent E;
    E.Cat = internedString(Fields[0]);
    E.Name = internedString(Fields[1]);
    E.Lane = static_cast<unsigned>(
        std::strtoul(Fields[2].c_str(), nullptr, 10));
    uint64_t AbsStart = std::strtoull(Fields[3].c_str(), nullptr, 10);
    E.StartUs = AbsStart > Base ? AbsStart - Base : 0;
    E.DurUs = std::strtoull(Fields[4].c_str(), nullptr, 10);
    E.TraceId = std::strtoull(Fields[5].c_str(), nullptr, 16);
    E.Pid = Pid;
    for (size_t I = 6; I + 1 < Fields.size(); I += 2)
      E.Args.emplace_back(internedString(Fields[I]),
                          std::move(Fields[I + 1]));
    record(std::move(E));
  }
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events;
}

size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events.size();
}

std::string TraceRecorder::json() const {
  std::vector<TraceEvent> Snapshot;
  std::map<int, std::string> Names;
  {
    std::lock_guard<std::mutex> Lock(M);
    Snapshot = Events;
    Names = ProcessNames;
  }

  // Local events (Pid 0) render as pid 1; imported events keep their
  // real pid. Collect the lanes of each process for metadata rows.
  unsigned MaxLane = 0;
  std::set<std::pair<int, unsigned>> ForeignLanes;
  for (const TraceEvent &E : Snapshot) {
    if (E.Pid == 0)
      MaxLane = std::max(MaxLane, E.Lane);
    else
      ForeignLanes.emplace(E.Pid, E.Lane);
  }

  auto LocalName = [&]() -> std::string {
    if (auto It = Names.find(1); It != Names.end())
      return It->second;
    if (auto It = Names.find(0); It != Names.end())
      return It->second;
    return "cobalt";
  };

  std::string Out;
  Out += "{\"traceEvents\": [\n";
  bool First = true;
  auto Meta = [&](const char *Row, int Pid, unsigned Tid,
                  const std::string &Name, bool WithTid) {
    Out += First ? "" : ",\n";
    First = false;
    Out += std::string("  {\"name\": \"") + Row +
           "\", \"ph\": \"M\", \"pid\": " + std::to_string(Pid);
    if (WithTid)
      Out += ", \"tid\": " + std::to_string(Tid);
    Out += ", \"args\": {\"name\": \"";
    appendJsonEscaped(Out, Name);
    Out += "\"}}";
  };

  Meta("process_name", 1, 0, LocalName(), /*WithTid=*/false);
  for (unsigned Lane = 0; Lane <= MaxLane; ++Lane)
    Meta("thread_name", 1, Lane,
         Lane == 0 ? std::string("driver")
                   : "worker-" + std::to_string(Lane - 1),
         /*WithTid=*/true);
  int LastPid = 0;
  for (const auto &[Pid, Lane] : ForeignLanes) {
    if (Pid != LastPid) {
      auto It = Names.find(Pid);
      Meta("process_name", Pid, 0,
           It != Names.end() ? It->second : std::string("worker"),
           /*WithTid=*/false);
      LastPid = Pid;
    }
    Meta("thread_name", Pid, Lane, "prover", /*WithTid=*/true);
  }

  for (const TraceEvent &E : Snapshot) {
    Out += First ? "" : ",\n";
    First = false;
    Out += "  {\"name\": \"";
    appendJsonEscaped(Out, E.Name);
    Out += "\", \"cat\": \"";
    appendJsonEscaped(Out, E.Cat);
    Out += "\", \"ph\": \"X\", \"ts\": " + std::to_string(E.StartUs) +
           ", \"dur\": " + std::to_string(E.DurUs) +
           ", \"pid\": " + std::to_string(E.Pid == 0 ? 1 : E.Pid) +
           ", \"tid\": " + std::to_string(E.Lane);
    if (!E.Args.empty() || E.TraceId != 0 || !E.Linked.empty()) {
      Out += ", \"args\": {";
      bool FirstArg = true;
      auto Arg = [&](std::string_view Key, std::string_view Value) {
        if (!FirstArg)
          Out += ", ";
        FirstArg = false;
        Out += "\"";
        appendJsonEscaped(Out, Key);
        Out += "\": \"";
        appendJsonEscaped(Out, Value);
        Out += "\"";
      };
      for (const auto &[Key, Value] : E.Args)
        Arg(Key, Value);
      if (E.TraceId != 0)
        Arg("trace_id", hex16(E.TraceId));
      if (!E.Linked.empty()) {
        std::string Joined;
        for (uint64_t Id : E.Linked) {
          if (!Joined.empty())
            Joined += ",";
          Joined += hex16(Id);
        }
        Arg("linked", Joined);
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Telemetry.
//===----------------------------------------------------------------------===//

std::atomic<Telemetry *> Telemetry::Active{nullptr};
