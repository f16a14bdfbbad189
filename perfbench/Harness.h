//===- Harness.h - Shared pieces of the repository benchmark ----*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads (workloads.cpp) share: options, the result
/// record printed as the benchmark's last line, percentiles, the
/// in-memory span recorder used by the traced runs, and the correctness
/// oracles behind `failed` (checks.cpp). Everything here is measured from
/// outside the libraries: spans wrap calls into public functions, and no
/// library code is instrumented for the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_PERFBENCH_HARNESS_H
#define COBALT_PERFBENCH_HARNESS_H

#include "api/Service.h"
#include "ir/Ast.h"
#include "ir/Interp.h"
#include "validate/Validate.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

/// Nearest-rank percentile (P in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double percentile(std::vector<double> Values, double P);
inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 0.5);
}

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// The machine's speed, for scaling measured times. On a host shared
/// with other tenants, how fast memory-bound code runs moves by 15-30% as
/// the neighbours' load changes, while a compute-only loop moves by about
/// 3%. The engine and Z3 are memory-bound, so raw times of the same work
/// spread widely from run to run. sample() times a fixed memory-bound
/// reference task (a std::set of integer pairs filled and probed: the
/// benchmark's own code, which no change to the repository can speed up).
/// The workloads take samples between their timed pieces of work and
/// report each time multiplied by RefNominalMs over a sample: the time
/// the work would have taken with the reference task at its nominal
/// speed. Short pieces use the sample just before them (lastScale()),
/// long ones the median sample of the run (scale()).
class SpeedRef {
public:
  /// Runs the reference task once and returns its time in ms.
  double sample();
  /// RefNominalMs over the median sample (1 before any sample).
  double scale() const;
  /// RefNominalMs over the latest sample (1 before any sample).
  double lastScale() const;
  double medianMs() const;
  size_t samples() const { return Samples.size(); }

  /// A fixed nominal time: on the 4-vCPU Firecracker VM the baseline was
  /// measured on, runs' median samples ranged from 35 to 70 ms.
  static constexpr double RefNominalMs = 60.0;

private:
  std::vector<double> Samples;
  std::unique_ptr<std::byte[]> Arena; ///< The reference task's nodes.
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// One run's outcome: the contract's last line (attempted, failed, the
/// metrics) plus human-readable lines printed before it.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics; ///< Printed in the final JSON object.
  std::vector<Metric> Notes;   ///< Printed as "name value unit" lines only.
  std::vector<std::string> Failures; ///< Why operations failed.

  /// Records one operation and, when \p Why is set, its failure.
  void record(const std::optional<std::string> &Why);
  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Name, double Value, std::string Unit) {
    Notes.push_back({std::move(Name), Value, std::move(Unit)});
  }
  double errorRate() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 0.0;
  }
};

//===----------------------------------------------------------------------===//
// Tracing (traced runs only).
//===----------------------------------------------------------------------===//

/// One recorded span. Layer is one of the repository's modules (ir, core,
/// engine, checker, api, service, support).
struct SpanRecord {
  std::string Name;
  std::string Layer;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;    ///< Index of the enclosing span, -1 at top level.
  uint64_t ReqId = 0; ///< Shared by every span of one request.
};

/// Single-threaded in-memory span recorder; written out once at exit.
class Tracer {
public:
  int open(std::string Layer, std::string Name, uint64_t ReqId);
  void close(int Id);
  /// Appends a finished span of known duration under the open span (used
  /// for work the libraries time themselves, such as obligation seconds).
  void addChild(std::string Layer, std::string Name, double Seconds);

  /// Self time per layer: each span's duration minus what its children
  /// cover, summed by layer, in ms.
  std::map<std::string, double> selfMsByLayer() const;
  /// Summed duration (ms) of every span with this name.
  double totalMs(const std::string &Name) const;
  bool writeJson(const std::string &Path) const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<int> Open;
};

/// RAII span; a null tracer records nothing.
class Span {
public:
  Span(Tracer *T, const char *Layer, const char *Name, uint64_t ReqId = 0)
      : T(T), Id(T ? T->open(Layer, Name, ReqId) : -1) {}
  ~Span() {
    if (T)
      T->close(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Inputs shared by the workloads.
//===----------------------------------------------------------------------===//

/// The standard 21-definition suite (opts/Labels.h, opts/Optimizations.h:
/// one analysis, 20 optimizations) as a service with Jobs = 1 and
/// telemetry off; verdicts persist under \p CacheDir when it is set.
std::shared_ptr<cobalt::api::CobaltService>
buildSuiteService(const std::string &CacheDir = "");

/// Per-obligation prover timeout of the rejection half (one attempt).
constexpr unsigned RejectionTimeoutMs = 250;

/// A service holding the buggy variants that the checker rejects with a
/// counterexample, with the standard labels and analyses they rely on.
std::shared_ptr<cobalt::api::CobaltService> buildBuggyService();

/// A buggy variant's known answer: Unsound, failing at an obligation whose
/// name starts with FailingPrefix.
struct KnownRejection {
  std::string Name;
  std::string FailingPrefix;
};
/// The variants of opts/Buggy.h that end Unsound (with a counterexample).
std::vector<KnownRejection> knownRejections();

/// The four translation-validation pairs with known verdicts.
struct ValidationPair {
  const char *Name;
  const char *Original;
  const char *Candidate;
  cobalt::validate::Verdict Expected;
};
const std::vector<ValidationPair> &validationPairs();

/// The interpreter oracle's inputs: 0, 1, -1 and five drawn from \p Seed.
std::vector<int64_t> oracleInputs(uint64_t Seed);

//===----------------------------------------------------------------------===//
// Correctness oracles (checks.cpp). Each returns why an operation is
// wrong, or nullopt when it is right.
//===----------------------------------------------------------------------===//

using Failure = std::optional<std::string>;

Failure checkSound(const cobalt::api::CheckResponse &R,
                   const std::string &Name);
Failure checkRejected(const cobalt::api::CheckResponse &R,
                      const KnownRejection &Known);
/// Runs main of \p P under ir::Interpreter on each input.
std::vector<cobalt::ir::RunResult> runMain(const cobalt::ir::Program &P,
                                           const std::vector<int64_t> &Inputs,
                                           uint64_t Fuel = 1u << 20);
/// Wherever an original run returned, the optimized run on the same input
/// must return the same value.
Failure compareRuns(const std::vector<cobalt::ir::RunResult> &Original,
                    const std::vector<cobalt::ir::RunResult> &Optimized,
                    const std::vector<int64_t> &Inputs);
/// Original-vs-optimized agreement under ir::Interpreter on \p Inputs.
Failure checkInterpAgreement(const cobalt::ir::Program &Original,
                             const cobalt::ir::Program &Optimized,
                             const std::vector<int64_t> &Inputs);
/// No pass report rolled back, failed or quarantined; not degraded.
Failure checkPipeline(const cobalt::api::PipelineResponse &R);
Failure checkValidation(const cobalt::validate::ValidationReport &R,
                        cobalt::validate::Verdict Expected);
/// A daemon response is "status": "ok" and byte-identical to the
/// response the same request got while priming.
Failure checkWarmResponse(const std::string &Got, const std::string &Primed);

/// True when a fault-injection plan is active (COBALT_FAULTS, or a plan
/// configured in-process such as checker.prover_stall_ms).
bool faultPlanActive();
/// Marks every operation of \p R failed when a fault plan is active:
/// injected stalls and failures are not real work.
void failAllIfFaulted(Result &R);

/// Plants one wrong answer of each kind and shows every oracle catches
/// it. Returns the process exit code.
int runSelfTest();

//===----------------------------------------------------------------------===//
// Workloads (workloads.cpp).
//===----------------------------------------------------------------------===//

void runCheckCold(const Options &O, Result &R, Tracer *T);
void runOptLarge(const Options &O, Result &R, Tracer *T);
void runServiceWarm(const Options &O, Result &R, Tracer *T);

} // namespace perfbench

#endif // COBALT_PERFBENCH_HARNESS_H
