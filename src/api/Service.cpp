//===- Service.cpp --------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Service.h"

#include "checker/Obligations.h"
#include "checker/VerdictStore.h"
#include "ir/Parser.h"
#include "opts/StdlibCobalt.h"
#include "support/ThreadPool.h"

#include <fstream>
#include <sstream>

using namespace cobalt;
using namespace cobalt::api;
using support::ErrorKind;

const char *api::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::RS_Ok:
    return "ok";
  case ResponseStatus::RS_Error:
    return "error";
  }
  return "error";
}

void api::preregisterHeadlineCounters(support::Telemetry &T) {
  static const char *const Headline[] = {
      "checker.obligations",     "checker.obligations.proven",
      "checker.obligations.failed", "checker.obligations.unknown",
      "checker.retries",         "checker.rlimit_spent",
      "checker.cache.hits",      "checker.cache.misses",
      "cache.mem.hits",          "cache.mem.misses",
      "cache.disk.hits",         "cache.disk.misses",
      "cache.disk.stores",       "cache.disk.corrupt",
      "service.requests",        "service.requests.check",
      "service.requests.run",    "service.requests.error",
      "service.dedup.leader",    "service.dedup.await",
      "service.dedup.served",
      "worker.spawns",           "worker.restarts",
      "worker.crashes",          "worker.kills_wall",
      "worker.kills_rss",        "worker.quarantined",
      "engine.procs",
      "engine.passes",           "engine.rewrites",
      "engine.rollbacks",        "engine.pass_failures",
      "engine.label_replays",    "engine.passes_unmatched",
      "dataflow.solves",         "dataflow.universe",
      "dataflow.fixpoint_iters", "dataflow.meet_dropped",
      "dataflow.psi2_dropped",   "fuzz.runs",
      "fuzz.programs",           "fuzz.divergences",
      "fuzz.findings",           "fuzz.oracle.execs",
      "fuzz.reduce.runs",        "fuzz.reduce.candidates",
      "fuzz.reduce.stmts_removed",
      "service.requests.validate",
      "validate.pairs",          "validate.probe.divergence",
      "validate.procs.alpha",    "validate.procs.simulation",
      "validate.verdict.Equivalent",
      "validate.verdict.Inequivalent",
      "validate.verdict.Unknown",
      "validate.adversary.blessed"};
  for (const char *Name : Headline)
    T.Metrics.add(Name, 0);
}

//===----------------------------------------------------------------------===//
// Builder.
//===----------------------------------------------------------------------===//

CobaltService::Builder &
CobaltService::Builder::addModule(CobaltModule Module) {
  for (LabelDef &Def : Module.Labels)
    Labels.push_back(std::move(Def));
  for (PureAnalysis &A : Module.Analyses)
    Analyses.push_back(std::move(A));
  for (Optimization &O : Module.Optimizations)
    Optimizations.push_back(std::move(O));
  return *this;
}

std::shared_ptr<CobaltService> CobaltService::Builder::build() {
  // make_shared cannot reach the private ctor; the explicit new is fine
  // for a build-once object.
  return std::shared_ptr<CobaltService>(
      new CobaltService(std::move(Cfg), std::move(Labels),
                        std::move(Analyses), std::move(Optimizations)));
}

//===----------------------------------------------------------------------===//
// Construction.
//===----------------------------------------------------------------------===//

CobaltService::CobaltService(CobaltConfig C, std::vector<LabelDef> Labels,
                             std::vector<PureAnalysis> As,
                             std::vector<Optimization> Os)
    : Config(std::move(C)),
      Pool(std::make_unique<support::ThreadPool>(Config.Jobs)),
      Store(std::make_shared<checker::VerdictStore>()) {
  // Labels first, then analyses, then optimizations: the pipeline order,
  // and a registry that carries every label and declared analysis label
  // before any request runs.
  Pipeline.setTxPolicy(Config.Tx);
  for (const LabelDef &Def : Labels)
    Pipeline.defineLabel(Def);
  for (PureAnalysis &A : As)
    Pipeline.addAnalysis(std::move(A));
  for (Optimization &O : Os)
    Pipeline.addOptimization(std::move(O));

  // The store's memory is what makes a warm daemon fast; its disk tier
  // is what makes a restarted one warm.
  if (!Config.CacheDir.empty())
    Store->open(Config.CacheDir);

  if (Config.Telemetry) {
    Telem = std::make_unique<support::Telemetry>();
    preregisterHeadlineCounters(*Telem);
  }
}

CobaltService::~CobaltService() = default;

//===----------------------------------------------------------------------===//
// Parsing and loading.
//===----------------------------------------------------------------------===//

namespace {

support::Expected<CobaltModule> parseModuleText(std::string_view Text) {
  DiagnosticEngine Diags;
  if (std::optional<CobaltModule> M = parseCobalt(Text, Diags))
    return std::move(*M);
  return support::Error(ErrorKind::EK_ParseError, Diags.str());
}

support::Expected<ir::Program> parseProgramText(std::string_view Text) {
  DiagnosticEngine Diags;
  if (std::optional<ir::Program> P = ir::parseProgram(Text, Diags))
    return std::move(*P);
  return support::Error(ErrorKind::EK_ParseError, Diags.str());
}

support::Expected<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return support::Error(ErrorKind::EK_IoError,
                          "cannot read '" + Path + "'");
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

support::Expected<CobaltModule>
CobaltService::parseModule(std::string_view Text) const {
  return parseModuleText(Text);
}

support::Expected<ir::Program>
CobaltService::parseProgram(std::string_view Text) const {
  return parseProgramText(Text);
}

support::Expected<CobaltModule> api::loadModule(const std::string &Path) {
  if (Path == "stdlib")
    return parseModuleText(opts::StdlibCobaltSource);
  support::Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  return parseModuleText(*Text);
}

support::Expected<ir::Program> api::loadProgram(const std::string &Path) {
  support::Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  return parseProgramText(*Text);
}

//===----------------------------------------------------------------------===//
// Checking.
//===----------------------------------------------------------------------===//

const std::vector<uint64_t> &CobaltService::fingerprints() const {
  // Fingerprints read only the definitions and the registry, fixed since
  // build(), so they are computed once. Not in build() itself: printing
  // every definition there made building a service about 1.5x as slow,
  // and a service that only runs pipelines never needs them.
  std::call_once(FingerprintsOnce, [this] {
    checker::SoundnessChecker Checker(registry(), analyses());
    for (const PureAnalysis &A : analyses())
      Fingerprints.push_back(Checker.fingerprintAnalysis(A));
    for (const Optimization &O : optimizations())
      Fingerprints.push_back(Checker.fingerprintOptimization(O));
  });
  return Fingerprints;
}

bool CobaltService::resolveTargets(const CheckRequest &Req,
                                   std::vector<Target> &Out,
                                   support::Error &Err) const {
  auto Wanted = [&Req](const std::string &Name) {
    if (Req.Only.empty())
      return true;
    for (const std::string &N : Req.Only)
      if (N == Name)
        return true;
    return false;
  };
  const std::vector<PureAnalysis> &Analyses = analyses();
  const std::vector<Optimization> &Optimizations = optimizations();
  const std::vector<uint64_t> &Keys = fingerprints();
  std::set<std::string> Seen;
  for (size_t I = 0; I < Analyses.size(); ++I)
    if (Wanted(Analyses[I].Name)) {
      Out.push_back({true, I, Keys[I]});
      Seen.insert(Analyses[I].Name);
    }
  for (size_t I = 0; I < Optimizations.size(); ++I)
    if (Wanted(Optimizations[I].Name)) {
      Out.push_back({false, I, Keys[Analyses.size() + I]});
      Seen.insert(Optimizations[I].Name);
    }
  for (const std::string &N : Req.Only)
    if (!Seen.count(N)) {
      Err = support::Error(ErrorKind::EK_Unavailable,
                           "definition '" + N +
                               "' is not registered with this service");
      return false;
    }
  return true;
}

void CobaltService::configureChecker(checker::SoundnessChecker &Checker,
                                     unsigned Jobs, int64_t BudgetMs,
                                     uint64_t FaultKeySalt) const {
  checker::ProverPolicy Policy = Config.Prover;
  if (BudgetMs >= 0)
    Policy.BudgetMs = static_cast<uint64_t>(BudgetMs);
  Checker.setPolicy(Policy);
  // Jobs == 1 means genuinely sequential on the calling thread; anything
  // else shares the service pool (its width is fixed at build time).
  Checker.setThreadPool(Jobs == 1 ? nullptr : Pool.get());
  Checker.setSharedCache(Store);
  Checker.setFaultKeySalt(FaultKeySalt);
}

CheckResponse CobaltService::check(const CheckRequest &Req) {
  support::TelemetryScope Scope(Telem.get());
  // Every span below (and every worker span across the fork) carries the
  // request's trace ID via the ambient TLS scope — established before
  // the first span is born.
  const uint64_t TraceId =
      Req.TraceId ? Req.TraceId : support::mintTraceId();
  support::TraceIdScope IdScope(TraceId);
  support::metricAdd("service.requests");
  support::metricAdd("service.requests.check");
  support::TraceSpan Span("service", "check");

  // The request's checker lowers the targets this request leads and
  // proves them. The service claims and settles those verdicts itself,
  // so the lowered sets are not Cacheable.
  checker::SoundnessChecker Checker(registry(), analyses());
  configureChecker(Checker, Req.Jobs, Req.BudgetMs, Req.FaultKeySalt);

  CheckResponse Resp;
  std::vector<Target> Targets;
  if (!resolveTargets(Req, Targets, Resp.Err)) {
    Resp.Status = ResponseStatus::RS_Error;
    support::metricAdd("service.requests.error");
    return Resp;
  }

  // Claim every target: leaders prove, the rest are served by the store.
  // The store's claims are thread-safe, and this request settles its own
  // leads before it waits on any claim it joined, so two requests that
  // each lead what the other joined both finish (DESIGN.md §8). Each lead
  // is lowered here, with its stored fingerprint.
  std::vector<checker::VerdictStore::Claim> Claims;
  std::vector<size_t> Leaders;               ///< Indices into Targets.
  std::vector<checker::ObligationSet> Leads; ///< Parallel to Leaders.
  Claims.reserve(Targets.size());
  for (size_t I = 0; I < Targets.size(); ++I) {
    const Target &T = Targets[I];
    Claims.push_back(Store->claim(T.Fingerprint, TraceId));
    if (!Claims.back().leads())
      continue;
    Leaders.push_back(I);
    Leads.push_back(
        T.IsAnalysis
            ? Checker.lower(analyses()[T.Index], T.Fingerprint)
            : Checker.lower(optimizations()[T.Index], T.Fingerprint));
    Leads.back().Cacheable = false;
  }
  const size_t Served = Targets.size() - Leaders.size();
  support::metricAdd("service.dedup.leader", Leaders.size());
  support::metricAdd("service.dedup.await", Served);

  // Prove the leads. checkObligationSets fans every lead's obligations
  // out at once, so one request overlaps all of its obligations.
  if (!Leaders.empty()) {
    // The leader's prove span. Once proving finishes, it is tagged with
    // the trace IDs of every request that joined one of this leader's
    // claims mid-flight — the cross-request join made visible.
    support::TraceSpan Prove("service", "prove");
    if (Prove.enabled())
      Prove.arg("leaders", static_cast<uint64_t>(Leaders.size()));

    std::vector<checker::CheckReport> Reports;
    try {
      // Fork safety: a subprocess-isolation leader is about to fork
      // prover workers; no other request may be inside Z3 in-process
      // while that happens (and vice versa).
      if (Config.Prover.Isolation ==
          checker::WorkerIsolation::WI_Subprocess) {
        std::unique_lock<std::shared_mutex> Iso(IsolationMutex);
        Reports = Checker.checkObligationSets(Leads);
      } else {
        std::shared_lock<std::shared_mutex> Iso(IsolationMutex);
        Reports = Checker.checkObligationSets(Leads);
      }
    } catch (...) {
      // Waiters receive the exception and the keys are forgotten, so
      // later requests re-prove.
      std::exception_ptr E = std::current_exception();
      for (size_t I : Leaders)
        Store->abandon(Claims[I], E);
      throw;
    }

    std::vector<uint64_t> FollowerIds;
    for (size_t R = 0; R < Leaders.size(); ++R) {
      std::vector<uint64_t> Ids =
          Store->settle(Claims[Leaders[R]], std::move(Reports[R]));
      FollowerIds.insert(FollowerIds.end(), Ids.begin(), Ids.end());
    }
    if (!FollowerIds.empty())
      Prove.linked(std::move(FollowerIds));
  }

  // Collect every report in input order (leaders' and hits' claims are
  // settled; joined ones block on their leader).
  std::vector<checker::CheckReport> Reports;
  Reports.reserve(Targets.size());
  size_t AnalysisCount = 0;
  for (size_t I = 0; I < Targets.size(); ++I) {
    Reports.push_back(*Claims[I].get());
    if (Targets[I].IsAnalysis)
      ++AnalysisCount;
  }
  if (Served != 0)
    support::metricAdd("service.dedup.served", Served);
  TotalCacheHits += static_cast<unsigned>(Served);

  Resp.Suite = assembleSuite(std::move(Reports), AnalysisCount, Resp.Remarks);
  return Resp;
}

SuiteResult api::assembleSuite(std::vector<checker::CheckReport> Reports,
                               size_t AnalysisCount,
                               std::vector<support::Remark> &Remarks) {
  SuiteResult Suite;
  Suite.Reports = std::move(Reports);
  for (size_t I = 0; I < Suite.Reports.size(); ++I) {
    const checker::CheckReport &R = Suite.Reports[I];
    if (R.V == checker::CheckReport::Verdict::V_Unsound)
      ++Suite.Unsound;
    else if (R.V == checker::CheckReport::Verdict::V_Unproven)
      ++Suite.Unproven;
    unsigned QuarantinedObs = 0;
    for (const checker::ObligationResult &Ob : R.Obligations)
      if (Ob.Err.Kind == ErrorKind::EK_WorkerCrash)
        ++QuarantinedObs;
    if (QuarantinedObs != 0) {
      ++Suite.Quarantined;
      support::Remark Rem;
      Rem.K = support::Remark::Kind::RK_Missed;
      Rem.Pass = R.Name;
      Rem.Note = std::to_string(QuarantinedObs) +
                 " obligation(s) quarantined after repeated prover-"
                 "worker failures; verdict degraded to unproven";
      Remarks.push_back(std::move(Rem));
    }
    if (I < AnalysisCount) {
      if (R.Sound)
        Suite.ProvenAnalyses.insert(R.Name);
      continue;
    }
    // The optimization's guarantee is conditional on its assumed
    // analyses being proven themselves (§6).
    bool AnalysesOk = true;
    for (const std::string &Dep : R.AssumedAnalyses)
      AnalysesOk = AnalysesOk && Suite.ProvenAnalyses.count(Dep) != 0;
    if (R.Sound && AnalysesOk)
      Suite.ProvenOptimizations.insert(R.Name);
    else if (R.Sound)
      Suite.Conditional.push_back(R.Name);
  }
  return Suite;
}

int CobaltService::exitCodeFor(const SuiteResult &Suite,
                               bool PipelineDegraded) {
  // Precedence: a genuine counterexample always dominates; containment
  // degradation outranks plain infra degradation (it names a *cause* —
  // dying workers — where 3 only names a symptom).
  if (Suite.Unsound > 0)
    return 1;
  bool Quarantined = Suite.containmentDegraded();
  for (const checker::CheckReport &R : Suite.Reports)
    for (const checker::ObligationResult &Ob : R.Obligations)
      Quarantined |= Ob.Err.Kind == ErrorKind::EK_WorkerCrash;
  if (Quarantined)
    return 4;
  if (Suite.Unproven > 0 || PipelineDegraded)
    return 3;
  return 0;
}

int CobaltService::exitCodeFor(const validate::ValidationReport &Report) {
  switch (Report.V) {
  case validate::Verdict::V_Equivalent:
    return 0;
  case validate::Verdict::V_Inequivalent:
    return 1;
  case validate::Verdict::V_Unknown:
    return 3;
  }
  return 3;
}

//===----------------------------------------------------------------------===//
// Translation validation.
//===----------------------------------------------------------------------===//

ValidateResponse CobaltService::validate(ValidateRequest Req) {
  support::TelemetryScope Scope(Telem.get());
  const uint64_t TraceId =
      Req.TraceId ? Req.TraceId : support::mintTraceId();
  support::TraceIdScope IdScope(TraceId);
  support::metricAdd("service.requests");
  support::metricAdd("service.requests.validate");
  support::TraceSpan Span("service", "validate");

  ValidateResponse Resp;
  if (std::optional<std::string> Err = ir::validateProgram(Req.Original)) {
    Resp.Status = ResponseStatus::RS_Error;
    Resp.Err = support::Error(ErrorKind::EK_ParseError,
                              "original program ill-formed: " + *Err);
    support::metricAdd("service.requests.error");
    return Resp;
  }

  // Leader/waiter dedup on the pair fingerprint: identical requests
  // collapse into one prover run, and every caller receives the leader's
  // report object (byte-identical serializations).
  auto Claim = Validations.claim(
      validate::fingerprintPair(Req.Original, Req.Candidate, Req.Options));
  const bool Leads = Claim.leads();
  if (Leads) {
    checker::SoundnessChecker Checker(registry(), analyses());
    configureChecker(Checker, Req.Jobs, Req.BudgetMs, Req.FaultKeySalt);

    support::TraceSpan Prove("service", "validate.prove");
    validate::ValidationReport Report;
    try {
      // Fork safety, as in check(): subprocess-isolation leaders fork
      // prover workers and must exclude in-process Z3 users.
      if (Config.Prover.Isolation ==
          checker::WorkerIsolation::WI_Subprocess) {
        std::unique_lock<std::shared_mutex> Iso(IsolationMutex);
        Report = validate::validatePrograms(Req.Original, Req.Candidate,
                                            Checker, Req.Options);
      } else {
        std::shared_lock<std::shared_mutex> Iso(IsolationMutex);
        Report = validate::validatePrograms(Req.Original, Req.Candidate,
                                            Checker, Req.Options);
      }
    } catch (...) {
      Validations.abandon(Claim, std::current_exception());
      throw;
    }
    TotalCacheHits += Checker.cacheHits();
    // Unknown is transient (prover limits, alignment caps): current
    // waiters receive it, later requests re-validate.
    bool Keep = Report.V != validate::Verdict::V_Unknown;
    Validations.settle(
        Claim,
        std::make_shared<const validate::ValidationReport>(std::move(Report)),
        Keep);
  } else {
    support::metricAdd("service.dedup.await");
  }

  Resp.Report = *Claim.get();
  if (!Leads) {
    support::metricAdd("service.dedup.served");
    ++TotalCacheHits;
  }
  return Resp;
}

//===----------------------------------------------------------------------===//
// Pipeline.
//===----------------------------------------------------------------------===//

PipelineResponse CobaltService::run(PipelineRequest Req) {
  support::TelemetryScope Scope(Telem.get());
  const uint64_t TraceId =
      Req.TraceId ? Req.TraceId : support::mintTraceId();
  support::TraceIdScope IdScope(TraceId);
  support::metricAdd("service.requests");
  support::metricAdd("service.requests.run");
  support::TraceSpan Span("service", "pipeline");

  // Jobs == 1 means genuinely sequential on the calling thread, as in
  // configureChecker.
  support::ThreadPool *Lanes = Req.Jobs == 1 ? nullptr : Pool.get();
  PipelineResponse Resp;
  Resp.Result.Reports =
      Req.SelectedOnly ? Pipeline.runSelected(Req.PassNames, Req.Prog, Lanes)
                       : Pipeline.run(Req.Prog, Lanes);
  for (const engine::PassReport &R : Resp.Result.Reports) {
    Resp.Result.Applied += R.AppliedCount;
    Resp.Result.Degraded |= R.failed();
  }
  Resp.Prog = std::move(Req.Prog);
  return Resp;
}
