//===- Service.h - The shared CobaltService + request types ----*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public API of the reproduction (DESIGN.md §13): one immutable
/// service plus cheap per-call request values. A driver loads a module,
/// builds the service, proves, and runs only the proven subset — the
/// extensible-compiler gate of paper §1/§6:
///
/// \code
///   auto Module = api::loadModule("opts.cob");   // or "stdlib"
///   auto Svc = api::CobaltService::Builder()
///                  .config(Config)
///                  .addModule(std::move(*Module))
///                  .build();                      // shared_ptr, immutable
///   api::CheckResponse Gate = Svc->check({});     // from any thread
///   api::PipelineRequest Req;
///   Req.Prog = std::move(*api::loadProgram("prog.il"));
///   Req.PassNames = Gate.Suite.provenPassNames();
///   Req.SelectedOnly = true;
///   api::PipelineResponse Out = Svc->run(std::move(Req));
/// \endcode
///
///  * **CobaltService** — everything that is expensive and shareable,
///    frozen at build() time: the pipeline (one engine::PassManager that
///    holds the registered definitions and the label registry), the
///    thread pool, the verdict store, and the telemetry session. One
///    service, many concurrent callers; after build() nothing about it
///    mutates except memos and counters (all internally synchronized).
///
///  * **CheckRequest / PipelineRequest** — cheap per-call value types.
///    Each carries its *own* jobs / budget / fault-key overrides, so two
///    callers of one service can run with different resource policies
///    without trampling each other.
///
/// Responses are values too (`CheckResponse` / `PipelineResponse`), with
/// a three-way status: Ok, Retry (admission control turned the request
/// away — back off and resend), or Error.
///
/// ## Obligation dedup
///
/// Concurrent requests proving the same definition would otherwise each
/// discharge its obligations. The service keys every definition by the
/// checker's structural fingerprint and claims it in its
/// checker::VerdictStore, the one single-flight memo of decoded reports
/// in front of the disk tier: the first requester (the *leader*) proves
/// and settles, every concurrent or later requester receives the
/// leader's report object verbatim — which is also what makes N
/// clients' responses byte-identical. Definitive verdicts stay for the
/// service's lifetime; Unproven reports are handed to current waiters
/// and forgotten, so a later request re-proves them. Validation requests
/// dedup the same way on the pair fingerprint.
///
/// ## Admission control
///
/// `CobaltConfig::MaxInFlightObligations` bounds the obligations being
/// proven at once. A request whose leader set would push past the bound
/// gets `RS_Retry` (never queued invisibly) — unless the service is
/// idle, in which case it is always admitted so one oversized suite can
/// still make progress.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_API_SERVICE_H
#define COBALT_API_SERVICE_H

#include "checker/Soundness.h"
#include "core/CobaltParser.h"
#include "engine/PassManager.h"
#include "ir/Ast.h"
#include "support/Expected.h"
#include "support/SingleFlight.h"
#include "support/Telemetry.h"
#include "validate/Validate.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

namespace cobalt {

namespace support {
class ThreadPool;
} // namespace support

namespace api {

/// Everything a service owns, fixed at build time.
struct CobaltConfig {
  checker::ProverPolicy Prover; ///< Obligation resource policy.
  engine::TxPolicy Tx;          ///< Transactional pass policy.
  /// Thread-pool lanes shared by the checker (obligations) and the pass
  /// manager (procedures): at most Jobs jobs in flight, the calling
  /// thread included. 1 = sequential (no worker threads at all); 0 = one
  /// lane per hardware thread. Results are bit-identical for every
  /// value.
  unsigned Jobs = 1;
  /// When nonempty, proved verdicts persist here across processes
  /// (the verdict store's disk tier, support::DiskCache). Unusable
  /// directories degrade to the in-memory store, they are never an error.
  std::string CacheDir;
  /// Collect metrics and trace spans for this service's operations (the
  /// substrate behind cobaltc --trace-out/--metrics-out). Off by
  /// default: with it off, instrumentation sites cost one relaxed atomic
  /// load each.
  bool Telemetry = false;
  /// Admission bound: maximum obligations in flight across all requests
  /// (0 = unlimited). A check request that would exceed it receives
  /// RS_Retry instead of queueing, except when the service is idle.
  unsigned MaxInFlightObligations = 0;
};

/// Outcome of proving a set of registered definitions.
struct SuiteResult {
  std::vector<checker::CheckReport> Reports; ///< Analyses, then opts.
  unsigned Unsound = 0;  ///< Genuine counterexamples.
  unsigned Unproven = 0; ///< Prover gave up (infra degradation).
  /// Definitions with at least one obligation quarantined by worker
  /// containment (EK_WorkerCrash): the prover subprocess kept dying and
  /// the verdict degraded to unproven. A subset of Unproven; drives
  /// cobaltc's distinct containment-degraded exit code.
  unsigned Quarantined = 0;
  std::set<std::string> ProvenAnalyses;
  std::set<std::string> ProvenOptimizations;
  /// Optimizations whose own obligations were proven but which assume an
  /// analysis that was not — sound conditionally, treated as unproven.
  std::vector<std::string> Conditional;

  bool allSound() const { return Unsound == 0 && Unproven == 0; }
  /// Worker containment (not mere prover limits) degraded some verdict.
  bool containmentDegraded() const { return Quarantined != 0; }

  /// The proven pass names in one list (for runPipeline's subset form).
  std::vector<std::string> provenPassNames() const {
    std::vector<std::string> Names(ProvenAnalyses.begin(),
                                   ProvenAnalyses.end());
    Names.insert(Names.end(), ProvenOptimizations.begin(),
                 ProvenOptimizations.end());
    return Names;
  }
};

/// Outcome of one pipeline run over a program.
struct PipelineResult {
  std::vector<engine::PassReport> Reports; ///< (pass, procedure) order.
  unsigned Applied = 0; ///< Total rewrites across all reports.
  bool Degraded = false; ///< Some report failed (and was rolled back).
};

/// Three-way request outcome. Retry is admission control speaking: the
/// request was *not* processed (no partial effects) and should be
/// resent after a backoff.
enum class ResponseStatus {
  RS_Ok,
  RS_Retry,
  RS_Error,
};

const char *responseStatusName(ResponseStatus S);

/// One soundness-checking request. Cheap to construct per call; every
/// field is an override of the service's defaults.
struct CheckRequest {
  /// Definition names to check; empty = every registered definition.
  /// A name the service does not know yields RS_Error(EK_Unavailable).
  std::vector<std::string> Only;
  /// 0 = the service's pool width; 1 = sequential on the calling thread.
  /// (The pool is sized at build time, so values > 1 select the pool,
  /// not a new width.)
  unsigned Jobs = 0;
  /// Per-definition wall budget override in ms; -1 = service policy.
  int64_t BudgetMs = -1;
  /// Salt XOR'd into this request's obligation fault keys (see
  /// SoundnessChecker::setFaultKeySalt). 0 = unsalted, reproducible.
  uint64_t FaultKeySalt = 0;
  /// Request trace ID (nonzero = caller-supplied, e.g. forwarded by the
  /// daemon from the protocol frame); 0 = the service mints one. Every
  /// span and flight event this request produces — including prover-
  /// worker spans across the fork — carries it.
  uint64_t TraceId = 0;
};

struct CheckResponse {
  ResponseStatus Status = ResponseStatus::RS_Ok;
  SuiteResult Suite;
  /// Remarks synthesized during suite assembly (quarantined-obligation
  /// notices), in deterministic report order.
  std::vector<support::Remark> Remarks;
  support::Error Err; ///< Populated when Status == RS_Error.

  bool ok() const { return Status == ResponseStatus::RS_Ok; }
  bool retry() const { return Status == ResponseStatus::RS_Retry; }
};

/// One pipeline request. Owns its program: the service transforms a copy
/// the caller moved in and moves it back out in the response, so two
/// concurrent pipeline requests share nothing.
struct PipelineRequest {
  ir::Program Prog;
  /// With SelectedOnly, run exactly the registered passes named here (in
  /// registration order — pair with SuiteResult::provenPassNames());
  /// otherwise run every registered pass and PassNames is ignored.
  std::vector<std::string> PassNames;
  bool SelectedOnly = false;
  /// 0 = the service's pool width; 1 = sequential on the calling thread.
  unsigned Jobs = 0;
  /// Request trace ID; 0 = the service mints one (see CheckRequest).
  uint64_t TraceId = 0;
};

struct PipelineResponse {
  ResponseStatus Status = ResponseStatus::RS_Ok;
  PipelineResult Result;
  ir::Program Prog; ///< The transformed program (moved from the request).
  support::Error Err;

  bool ok() const { return Status == ResponseStatus::RS_Ok; }
};

/// One translation-validation request: prove an (original, candidate)
/// program pair equivalent, or produce a concrete counterexample. Owns
/// its programs, like PipelineRequest.
struct ValidateRequest {
  ir::Program Original;
  ir::Program Candidate;
  validate::ValidationOptions Options;
  /// 0 = the service's pool width; 1 = sequential on the calling thread.
  unsigned Jobs = 0;
  /// Per-procedure wall budget override in ms; -1 = service policy.
  int64_t BudgetMs = -1;
  uint64_t FaultKeySalt = 0;
  /// Request trace ID; 0 = the service mints one (see CheckRequest).
  uint64_t TraceId = 0;
};

struct ValidateResponse {
  ResponseStatus Status = ResponseStatus::RS_Ok;
  validate::ValidationReport Report;
  support::Error Err;

  bool ok() const { return Status == ResponseStatus::RS_Ok; }
};

/// The immutable, shareable verification service. Build once (via
/// Builder), then issue requests from any number of threads: checkers
/// are constructed fresh inside each call, every pipeline request runs
/// on the one PassManager built at build() (a run writes only its own
/// program), and the shared state (verdict store, validation memo,
/// counters) is internally synchronized. `cobaltd` serves exactly this
/// object over a socket; in-process embedders call it directly.
class CobaltService {
public:
  class Builder;

  ~CobaltService();
  CobaltService(const CobaltService &) = delete;
  CobaltService &operator=(const CobaltService &) = delete;

  const CobaltConfig &config() const { return Config; }

  /// \name Requests (thread-safe).
  /// @{

  /// Proves the requested definitions (analyses first, then
  /// optimizations, in registration order), deduplicating them against
  /// concurrent and earlier requests through the verdict store.
  CheckResponse check(const CheckRequest &Req);

  /// Runs the registered pipeline over the request's program on the
  /// service's PassManager.
  PipelineResponse run(PipelineRequest Req);

  /// Translation-validates the request's candidate program against its
  /// original on a fresh per-request checker. Identical pairs are
  /// deduplicated on their fingerprint (one prover run, every caller
  /// receives the leader's report); Unknown verdicts are handed to
  /// current waiters but never kept, as the verdict store never keeps
  /// Unproven.
  ValidateResponse validate(ValidateRequest Req);
  /// @}

  /// \name Parsing helpers (stateless; thread-safe).
  /// @{
  support::Expected<CobaltModule> parseModule(std::string_view Text) const;
  support::Expected<ir::Program> parseProgram(std::string_view Text) const;
  /// @}

  /// \name Introspection.
  /// @{
  const LabelRegistry &registry() const { return Pipeline.registry(); }
  const std::vector<PureAnalysis> &analyses() const {
    return Pipeline.analyses();
  }
  const std::vector<Optimization> &optimizations() const {
    return Pipeline.optimizations();
  }
  size_t definitionCount() const {
    return analyses().size() + optimizations().size();
  }
  support::ThreadPool &pool() { return *Pool; }
  /// The service's verdict store (memory, plus the disk tier when
  /// Config.CacheDir is set).
  const std::shared_ptr<checker::VerdictStore> &verdictCache() const {
    return Store;
  }
  /// Definitions and validation pairs served without proving them (from
  /// memory, disk, or another request's proving) so far.
  unsigned cacheHits() const { return TotalCacheHits; }
  /// The telemetry session, or nullptr when Config.Telemetry is off.
  support::Telemetry *telemetry() { return Telem.get(); }
  /// @}

  /// Suite → CLI exit code, shared by cobaltc and cobaltd so the two
  /// binaries cannot drift: 0 all sound, 1 rejected, 3 infrastructure
  /// degraded, 4 containment degraded (rejection takes precedence over
  /// containment over plain degradation).
  static int exitCodeFor(const SuiteResult &Suite, bool PipelineDegraded);

  /// Validation verdict → CLI exit code, shared by cobaltc and cobaltd:
  /// 0 Equivalent, 1 Inequivalent, 3 Unknown.
  static int exitCodeFor(const validate::ValidationReport &Report);

private:
  friend class Builder;
  CobaltService(CobaltConfig C, std::vector<LabelDef> Labels,
                std::vector<PureAnalysis> As, std::vector<Optimization> Os);

  /// One definition to prove, resolved against the registered passes.
  struct Target {
    bool IsAnalysis;
    size_t Index; ///< Into analyses() or optimizations().
    uint64_t Fingerprint;
  };

  bool resolveTargets(const checker::SoundnessChecker &Checker,
                      const CheckRequest &Req, std::vector<Target> &Out,
                      support::Error &Err) const;
  /// Applies the service policy and a request's overrides to \p C.
  void configureChecker(checker::SoundnessChecker &C, unsigned Jobs,
                        int64_t BudgetMs, uint64_t FaultKeySalt) const;

  CobaltConfig Config;
  /// The registered definitions, each held once: pipeline requests run
  /// on it, and its registry is the one every checker references.
  engine::PassManager Pipeline;
  std::unique_ptr<support::ThreadPool> Pool;
  std::shared_ptr<checker::VerdictStore> Store;
  std::unique_ptr<support::Telemetry> Telem;
  /// Dedup memo for validate() requests, keyed by fingerprintPair.
  support::SingleFlight<validate::ValidationReport> Validations;

  /// Guards check()'s claims in the verdict store and the admission
  /// ledger — one lock because admission decisions must see a consistent
  /// leader set.
  mutable std::mutex ServiceMutex;
  uint64_t InFlightObligations = 0;

  /// Fork-safety (DESIGN.md §12): a subprocess-isolation leader forks
  /// prover workers, which must not happen while another thread is
  /// inside Z3 in-process. In-process leaders hold this shared,
  /// subprocess leaders exclusive.
  std::shared_mutex IsolationMutex;

  std::atomic<unsigned> TotalCacheHits{0};
};

/// Accumulates definitions + config, then freezes them into a service.
/// The builder is single-threaded; the built service is not.
class CobaltService::Builder {
public:
  Builder &config(CobaltConfig C) {
    Cfg = std::move(C);
    return *this;
  }
  Builder &defineLabel(const LabelDef &Def) {
    Labels.push_back(Def);
    return *this;
  }
  Builder &addAnalysis(PureAnalysis A) {
    Analyses.push_back(std::move(A));
    return *this;
  }
  Builder &addOptimization(Optimization O) {
    Optimizations.push_back(std::move(O));
    return *this;
  }
  /// Registers everything a parsed module defines (labels, analyses,
  /// optimizations, in that order).
  Builder &addModule(CobaltModule Module);

  /// Freezes everything into an immutable shared service.
  std::shared_ptr<CobaltService> build();

private:
  CobaltConfig Cfg;
  std::vector<LabelDef> Labels;
  std::vector<PureAnalysis> Analyses;
  std::vector<Optimization> Optimizations;
};

/// Suite assembly: the verdict counts, the §6 assumed-analysis gate
/// (an optimization proven under an unproven analysis lands in
/// Conditional, not ProvenOptimizations), and one missed remark per
/// definition with quarantined obligations, appended to \p Remarks.
/// \p Reports lists the analyses first (\p AnalysisCount of them), then
/// the optimizations. A pure function of the reports, so a driver that
/// proves definitions one request at a time derives the same summary as
/// one batched CobaltService::check.
SuiteResult assembleSuite(std::vector<checker::CheckReport> Reports,
                          size_t AnalysisCount,
                          std::vector<support::Remark> &Remarks);

/// Reads and parses a .cob module file; the path "stdlib" names the
/// bundled standard module. EK_IoError / EK_ParseError on failure.
support::Expected<CobaltModule> loadModule(const std::string &Path);

/// Reads and parses an IL program file (EK_IoError / EK_ParseError).
support::Expected<ir::Program> loadProgram(const std::string &Path);

/// Pre-registers the headline counters at zero on \p T so every metrics
/// dump carries the full schema — a check-only run still shows
/// engine.rollbacks: 0 rather than omitting the key.
void preregisterHeadlineCounters(support::Telemetry &T);

} // namespace api
} // namespace cobalt

#endif // COBALT_API_SERVICE_H
