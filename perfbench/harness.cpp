//===- harness.cpp - Entry point of the repository benchmark --------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// perfbench_harness --workload check_cold|opt_large|service_warm
///                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
/// perfbench_harness --self-test
///
/// Runs one workload and prints, as its last stdout line, one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. Human-readable
/// "name value unit" lines (workload-specific figures such as
/// verdict_p50_ms, reject_p50_ms, stmts_after and error_rate) come first.
/// Refuses to run (exit 3, no result) while a fault-injection plan is
/// active: injected stalls and failures are not real work.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory_resource>
#include <set>
#include <sys/resource.h>

using namespace perfbench;

namespace {

/// The end-to-end metrics every workload reports with --trace 0, and
/// their units; BENCHMARK.json lists the same names.
const std::vector<std::pair<const char *, const char *>> EndToEnd = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"peak_rss_mb", "MB"},    {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},     {"req_per_s", "1/s"},
};

/// The per-layer metrics every workload reports with --trace 1. A layer a
/// workload does not exercise reports 0 for it (no work of that kind).
const std::vector<std::pair<const char *, const char *>> PerLayer = {
    {"checker.obligations", "count"},
    {"checker.rlimit", "count"},
    {"checker.attempts_per_obligation", "ratio"},
    {"checker.unknown", "count"},
    {"checker.obligation_p50_ms", "ms"},
    {"checker.obligation_p95_ms", "ms"},
    {"checker.ctx_setup_ms", "ms"},
    {"checker.axioms_ms", "ms"},
    {"checker.trivial_solve_ms", "ms"},
    {"checker.fixed_cost_share", "ratio"},
    {"checker.cex_ms", "ms"},
    {"checker.cex_obligations", "count"},
    {"checker.cex_timeouts", "count"},
    {"core.universe_ms", "ms"},
    {"core.gen_ms", "ms"},
    {"core.gen_facts", "count"},
    {"engine.solve_fwd_ms", "ms"},
    {"engine.solve_bwd_ms", "ms"},
    {"engine.fixpoint_ms", "ms"},
    {"engine.fixpoint_iters", "count"},
    {"engine.facts", "count"},
    {"engine.compute_delta_ms", "ms"},
    {"engine.apply_ms", "ms"},
    {"engine.optimize_ms", "ms"},
    {"engine.analysis_ms", "ms"},
    {"engine.analysis_runs", "count"},
    {"engine.delta", "count"},
    {"engine.applied", "count"},
    {"engine.applied_ratio", "ratio"},
    {"engine.rollbacks", "count"},
    {"engine.pipeline_ms", "ms"},
    {"engine.stmts_after", "count"},
    {"ir.cfg_build_ms", "ms"},
    {"ir.interp_ms", "ms"},
    {"ir.program_copy_ms", "ms"},
    {"ir.parse_ms", "ms"},
    {"api.check_hit_us", "us"},
    {"api.full_check_hit_us", "us"},
    {"api.validate_hit_us", "us"},
    {"api.run_ms", "ms"},
    {"api.hit_rate", "ratio"},
    {"api.dedup_served", "count"},
    {"service.ping_us", "us"},
    {"service.response_bytes", "bytes"},
    {"service.json_parse_us", "us"},
    {"support.cache_mem_hits", "count"},
    {"support.cache_disk_hits", "count"},
    {"support.mem_suite_us", "us"},
    {"support.disk_suite_us", "us"},
    {"self.ir_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.checker_ms", "ms"},
    {"self.api_ms", "ms"},
    {"self.service_ms", "ms"},
    {"self.support_ms", "ms"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "check_cold|opt_large|service_warm --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       perfbench_harness --self-test\n");
  return 2;
}

/// Orders \p R's metrics as \p Schema does, adding 0 for a schema metric
/// the workload did not produce. A produced metric missing from the
/// schema is a harness bug and fails the run.
bool conformTo(const std::vector<std::pair<const char *, const char *>> &Schema,
               Result &R) {
  std::vector<Metric> Out;
  std::set<std::string> Known;
  for (const auto &[Name, Unit] : Schema) {
    Known.insert(Name);
    auto It = std::find_if(R.Metrics.begin(), R.Metrics.end(),
                           [&](const Metric &M) { return M.Name == Name; });
    Out.push_back({Name, It == R.Metrics.end() ? 0.0 : It->Value, Unit});
  }
  for (const Metric &M : R.Metrics)
    if (!Known.count(M.Name)) {
      std::fprintf(stderr, "perfbench: metric '%s' is not in the schema\n",
                   M.Name.c_str());
      return false;
    }
  R.Metrics = std::move(Out);
  return true;
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared helpers.
//===----------------------------------------------------------------------===//

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(P * static_cast<double>(Values.size()));
  size_t Idx = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Idx, Values.size() - 1)];
}

double perfbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

double SpeedRef::sample() {
  // Up to 100k distinct 40-byte nodes (4 MB), beyond a core's private
  // caches: every probe walks the tree through the shared cache or
  // memory. The nodes live in an arena of the benchmark's own, so the
  // task leaves the heap the timed work allocates from untouched.
  constexpr size_t ArenaBytes = 5u << 20;
  if (!Arena)
    Arena = std::make_unique<std::byte[]>(ArenaBytes);
  std::pmr::monotonic_buffer_resource Pool(Arena.get(), ArenaBytes,
                                           std::pmr::null_memory_resource());
  auto Start = Clock::now();
  std::pmr::set<std::pair<int, int>> Tree(&Pool);
  uint64_t X = 1;
  size_t Found = 0;
  for (int K = 0; K < 100000; ++K) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Tree.insert({static_cast<int>(X >> 40) & 4095,
                 static_cast<int>(X >> 20) & 255});
    Found += Tree.count({K & 4095, (K >> 4) & 255});
  }
  double Ms = secondsSince(Start) * 1e3;
  // Keeps the probes from being optimized away; Found never reaches it.
  if (Found > Tree.size() + 100000)
    std::abort();
  Samples.push_back(Ms);
  return Ms;
}

double SpeedRef::scale() const {
  double Ms = medianMs();
  return Ms > 0.0 ? RefNominalMs / Ms : 1.0;
}

double SpeedRef::lastScale() const {
  return Samples.empty() || Samples.back() <= 0.0
             ? 1.0
             : RefNominalMs / Samples.back();
}

double SpeedRef::medianMs() const { return median(Samples); }

void Result::record(const std::optional<std::string> &Why) {
  ++Attempted;
  if (!Why)
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(*Why);
}

//===----------------------------------------------------------------------===//
// Tracer.
//===----------------------------------------------------------------------===//

namespace {
int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
} // namespace

int Tracer::open(std::string Layer, std::string Name, uint64_t ReqId) {
  SpanRecord S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.ReqId = ReqId ? ReqId : (S.Parent >= 0 ? Spans[S.Parent].ReqId : 0);
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void Tracer::close(int Id) {
  Spans[Id].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

void Tracer::addChild(std::string Layer, std::string Name, double Seconds) {
  SpanRecord S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.ReqId = S.Parent >= 0 ? Spans[S.Parent].ReqId : 0;
  S.StartNs = S.Parent >= 0 ? Spans[S.Parent].StartNs : nowNs();
  S.EndNs = S.StartNs + static_cast<int64_t>(Seconds * 1e9);
  Spans.push_back(std::move(S));
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::vector<double> ChildNs(Spans.size(), 0.0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Ns = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) -
                ChildNs[I];
    Self[Spans[I].Layer] += std::max(0.0, Ns) / 1e6;
  }
  return Self;
}

double Tracer::totalMs(const std::string &Name) const {
  double Sum = 0.0;
  for (const SpanRecord &S : Spans)
    if (S.Name == Name)
      Sum += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
  return Sum;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  std::fprintf(F, "{\"spans\": [");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"req\": %llu}",
                 I ? "," : "", I, S.Name.c_str(), S.Layer.c_str(),
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.Parent,
                 static_cast<unsigned long long>(S.ReqId));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// main.
//===----------------------------------------------------------------------===//

int main(int Argc, char **Argv) {
  Options O;
  std::string TraceOut;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *A = Argv[I];
    const char *V = nullptr;
    if (std::strcmp(A, "--self-test") == 0)
      return runSelfTest();
    if (std::strcmp(A, "--workload") == 0 && (V = Next())) {
      O.Workload = V;
      HaveWorkload = true;
    } else if (std::strcmp(A, "--seed") == 0 && (V = Next())) {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (std::strcmp(A, "--seconds") == 0 && (V = Next())) {
      O.Seconds = std::atof(V);
    } else if (std::strcmp(A, "--trace") == 0 && (V = Next())) {
      O.Trace = std::strcmp(V, "0") != 0;
    } else if (std::strcmp(A, "--trace-out") == 0 && (V = Next())) {
      TraceOut = V;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || O.Seconds <= 0.0)
    return usage();

  // Injected stalls and failures are not real work: refuse outright.
  if (faultPlanActive()) {
    std::fprintf(stderr, "perfbench: refusing to run: a fault-injection "
                         "plan is active (COBALT_FAULTS)\n");
    return 3;
  }

  Result R;
  Tracer T;
  Tracer *TP = O.Trace ? &T : nullptr;
  if (O.Workload == "check_cold")
    runCheckCold(O, R, TP);
  else if (O.Workload == "opt_large")
    runOptLarge(O, R, TP);
  else if (O.Workload == "service_warm")
    runServiceWarm(O, R, TP);
  else
    return usage();

  // A plan switched on in-process while the workload ran (for instance
  // checker.prover_stall_ms) taints every operation of the run.
  failAllIfFaulted(R);
  if (R.Attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  if (TP && !TraceOut.empty() && !T.writeJson(TraceOut))
    std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                 TraceOut.c_str());

  R.note("error_rate", R.errorRate(), "ratio");
  if (!conformTo(O.Trace ? PerLayer : EndToEnd, R))
    return 1;

  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", F.c_str());
  std::printf("workload %s seed %llu trace %d\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0);
  for (const Metric &M : R.Notes)
    std::printf("  %-32s %14s %s\n", M.Name.c_str(), number(M.Value).c_str(),
                M.Unit.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("  %-32s %14s %s\n", M.Name.c_str(), number(M.Value).c_str(),
                M.Unit.c_str());

  std::string J = "{\"correct\": ";
  J += R.Failed == 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + number(M.Value) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return 0;
}
