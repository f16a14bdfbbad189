//===- cobaltc.cpp - The Cobalt checker/compiler driver -------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Command-line driver over the CobaltService API (api/Service.h):
///
///   cobaltc check <module.cob>                  prove every definition
///   cobaltc opt   <module.cob> <program.il>     check, then print the
///                                               optimized program
///   cobaltc run   <module.cob> <program.il> N   check, then optimize and
///                                               run main(N) before/after
///   cobaltc validate <orig.il> <cand.il>        translation-validate an
///                                               untrusted optimized program
///                                               (exit 0 equivalent, 1
///                                               inequivalent, 3 unknown)
///   cobaltc stdlib                              print the bundled module
///   cobaltc client <verb> [args]                talk to a running cobaltd
///                                               (see below)
///
/// Flags are parsed from the shared table in Flags.cpp — the same rows
/// drive cobaltd and `cobaltc client`, so `--jobs`, `--cache-dir`,
/// `--prover-*` and `--worker-*` cannot drift between the tools. The
/// highlights:
///
///   --jobs <n>              parallel obligation/procedure jobs
///                           (default 1 = sequential; results are
///                           bit-identical for every value; 0 = one per
///                           hardware thread)
///   --cache-dir <dir>       persist proved verdicts across runs
///   --report=json           machine-readable report on stdout
///   --prover-timeout <ms>   full per-obligation Z3 timeout (default 8000)
///   --prover-retries <n>    escalating retries before the full timeout
///   --prover-budget <ms>    total wall-clock budget per definition
///   --isolate-workers       discharge obligations in forked, watchdogged
///                           prover subprocesses (DESIGN.md §12)
///   --worker-wall <ms>      watchdog wall budget per obligation dispatch
///   --worker-rss <mb>       watchdog rss-growth budget per dispatch
///   --worker-restarts <n>   fresh workers tried per obligation before it
///                           is quarantined (default 2)
///   --fail-fast             stop checking at the first unproven
///                           definition (definitions run sequentially)
///   --keep-going            opt/run: apply the proven subset instead of
///                           refusing the whole module
///   --trace-out=FILE        write a Chrome trace_event JSON of the run
///   --metrics-out=FILE      write the metrics registry as JSON
///   --remarks=LEVEL         all | missed | none (stderr)
///
/// ## Client mode (DESIGN.md §13)
///
///   cobaltc client ping --socket S              daemon liveness + def count
///   cobaltc client check --socket S [--only N]* prove via the daemon
///   cobaltc client run <prog.il> --socket S [--only PASS]*
///                                               optimize via the daemon
///   cobaltc client validate <orig.il> <cand.il> --socket S
///                                               translation-validate via
///                                               the daemon
///   cobaltc client stats --socket S             telemetry summary table
///                                               (--report=json for bytes)
///   cobaltc client shutdown --socket S          stop the daemon
///
/// Client mode prints the daemon's JSON response verbatim — the daemon
/// serializes with the same code as --report=json, and concurrent
/// clients asking for the same suite receive byte-identical documents.
/// The one exception is `stats`, which by default renders the daemon's
/// counters and latency percentiles as a human-readable table; pass
/// --report=json for the raw response bytes.
/// `--deadline <ms>` bounds each response wait (default 30000).
///
/// Exit codes separate the fundamentally different outcomes:
///
///   0  all definitions proven sound (and, for opt/run, pipeline clean)
///   1  at least one definition REJECTED (genuine counterexample)
///   2  usage / cannot read or parse inputs (or the daemon rejected the
///      request as malformed)
///   3  infrastructure degraded: no counterexample anywhere, but some
///      obligation timed out / came back unknown, or a pass failed (and
///      was rolled back) at run time
///   4  containment degraded: prover workers crashed/hung past their
///      restart budget and obligations were quarantined (still no
///      counterexample; rejection takes precedence)
///   5  server unreachable (client mode only): cobaltd is not running at
///      --socket, or the connection died / timed out mid-request. Never
///      a verdict — retry against a live daemon.
///
/// `opt`/`run` refuse to apply unproven optimizations — the
/// extensible-compiler discipline of paper §1/§6. Under --keep-going the
/// proven subset still runs; unproven definitions are skipped and
/// reported.
///
/// Fault injection (COBALT_FAULTS / COBALT_FAULT_SEED, see
/// support/FaultInjection.h) is honored, so every degradation path can be
/// exercised from the command line.
///
//===----------------------------------------------------------------------===//

#include "api/ReportJson.h"
#include "api/Service.h"
#include "ir/Interp.h"
#include "ir/Printer.h"
#include "opts/StdlibCobalt.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "support/FaultInjection.h"
#include "support/JsonEscape.h"

#include "Flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cobalt;

namespace {

enum ExitCode {
  ExitAllSound = 0,
  ExitRejected = 1,
  ExitUsage = 2,
  ExitDegraded = 3,
  /// Worker containment degraded verdicts (quarantined obligations).
  /// Distinct from ExitDegraded so CI can tell "the prover gave up" from
  /// "the prover kept *dying*" without parsing reports.
  ExitContained = 4,
  /// Client mode: cobaltd unreachable / connection lost. Distinct from
  /// every verdict code so callers never mistake a transport failure for
  /// a soundness outcome.
  ExitUnreachable = 5,
};

constexpr unsigned LocalFlagSets =
    cli::FS_Core | cli::FS_Prover | cli::FS_Driver | cli::FS_Telemetry;
constexpr unsigned ClientFlagSets = cli::FS_Client;

int usage() {
  std::fprintf(
      stderr,
      "usage: cobaltc check <module.cob> [flags]\n"
      "       cobaltc opt <module.cob> <program.il> [flags]\n"
      "       cobaltc run <module.cob> <program.il> [input] [flags]\n"
      "       cobaltc validate <original.il> <candidate.il> [flags]\n"
      "       cobaltc client <ping|check|run|validate|stats|shutdown> "
      "[args] --socket <path>\n"
      "       cobaltc stdlib\n"
      "%s"
      "client flags:\n"
      "%s"
      "exit:  0 all sound; 1 rejected definitions; 2 usage/input error;\n"
      "       (validate: 0 equivalent; 1 inequivalent; 3 unknown)\n"
      "       3 infrastructure degraded (timeouts/rollbacks, no "
      "counterexample);\n"
      "       4 containment degraded (prover workers died, obligations "
      "quarantined);\n"
      "       5 server unreachable (client mode: no daemon at --socket)\n",
      cli::flagUsage(LocalFlagSets).c_str(),
      cli::flagUsage(ClientFlagSets).c_str());
  return ExitUsage;
}

//===----------------------------------------------------------------------===//
// Observability wiring (--trace-out, --metrics-out, --remarks).
//===----------------------------------------------------------------------===//

/// Prints \p R on stderr if the --remarks= level asks for it. Remarks
/// flow regardless of --trace-out/--metrics-out: they are pipeline data.
void printRemark(const support::Remark &R, const cli::CommonOptions &Opts) {
  if (Opts.Remarks == cli::CommonOptions::RemarkLevel::RL_None ||
      (Opts.Remarks == cli::CommonOptions::RemarkLevel::RL_Missed &&
       R.K == support::Remark::Kind::RK_Passed))
    return;
  std::fprintf(stderr, "remark: %s\n", R.str().c_str());
}

/// Re-indents a pretty-printed JSON document so it can be embedded as a
/// value inside the report object.
std::string indentJson(const std::string &Doc, const char *Pad) {
  std::string Out;
  Out.reserve(Doc.size());
  for (char C : Doc) {
    if (C == '\n') {
      Out += '\n';
      Out += Pad;
    } else {
      Out += C;
    }
  }
  while (!Out.empty() && (Out.back() == ' ' || Out.back() == '\n'))
    Out.pop_back();
  return Out;
}

/// Writes the --trace-out/--metrics-out files and emits the telemetry
/// summary: into \p JsonOut as a "telemetry" member when reporting JSON,
/// as a table on stderr otherwise. \p T is the service's session, which
/// those flags switched on (null when neither was given). Failures warn
/// and are otherwise ignored — they never affect the exit code.
void emitTelemetry(support::Telemetry *T, const cli::CommonOptions &Opts,
                   std::string *JsonOut) {
  if (!T)
    return;
  cli::writeTelemetryFiles(T, Opts.TraceOut, Opts.MetricsOut, "cobaltc");

  const support::MetricsRegistry &M = T->Metrics;
  if (JsonOut) {
    *JsonOut += ",\n  \"telemetry\": {\n    \"trace_spans\": " +
                std::to_string(T->Trace.eventCount()) +
                ",\n    \"metrics\": " + indentJson(M.json(), "    ") +
                "\n  }";
    return;
  }
  support::HistogramStats Prover = M.histogram("checker.prover_seconds");
  std::fprintf(
      stderr,
      "-- telemetry --\n"
      "  obligations  %llu (proven %llu, failed %llu, unknown %llu, "
      "retries %llu)\n"
      "  prover       %.2f s solver wall, rlimit %llu\n"
      "  cache        %llu hits / %llu misses (mem: %llu hits / %llu "
      "misses; disk: %llu hits, %llu stores, %llu corrupt)\n"
      "  workers      %llu spawned, %llu restarted, %llu obligation(s) "
      "quarantined\n"
      "  engine       %llu rewrites, %llu rollbacks, %llu label "
      "replays\n"
      "  dataflow     %llu fixpoint iterations over %llu solves\n"
      "  trace        %zu spans\n",
      static_cast<unsigned long long>(M.counter("checker.obligations")),
      static_cast<unsigned long long>(
          M.counter("checker.obligations.proven")),
      static_cast<unsigned long long>(
          M.counter("checker.obligations.failed")),
      static_cast<unsigned long long>(
          M.counter("checker.obligations.unknown")),
      static_cast<unsigned long long>(M.counter("checker.retries")),
      Prover.Sum,
      static_cast<unsigned long long>(M.counter("checker.rlimit_spent")),
      static_cast<unsigned long long>(M.counter("checker.cache.hits")),
      static_cast<unsigned long long>(M.counter("checker.cache.misses")),
      static_cast<unsigned long long>(M.counter("cache.mem.hits")),
      static_cast<unsigned long long>(M.counter("cache.mem.misses")),
      static_cast<unsigned long long>(M.counter("cache.disk.hits")),
      static_cast<unsigned long long>(M.counter("cache.disk.stores")),
      static_cast<unsigned long long>(M.counter("cache.disk.corrupt")),
      static_cast<unsigned long long>(M.counter("worker.spawns")),
      static_cast<unsigned long long>(M.counter("worker.restarts")),
      static_cast<unsigned long long>(M.counter("worker.quarantined")),
      static_cast<unsigned long long>(M.counter("engine.rewrites")),
      static_cast<unsigned long long>(M.counter("engine.rollbacks")),
      static_cast<unsigned long long>(M.counter("engine.label_replays")),
      static_cast<unsigned long long>(
          M.counter("dataflow.fixpoint_iters")),
      static_cast<unsigned long long>(M.counter("dataflow.solves")),
      T->Trace.eventCount());
}

//===----------------------------------------------------------------------===//
// Checking.
//===----------------------------------------------------------------------===//

/// Prints the human-readable per-definition verdict line(s).
void printReport(const checker::CheckReport &R) {
  const char *VerdictText = "SOUND";
  if (R.V == checker::CheckReport::Verdict::V_Unsound)
    VerdictText = "REJECTED";
  else if (R.V == checker::CheckReport::Verdict::V_Unproven)
    VerdictText = "UNPROVEN";
  std::printf("  %-24s %-10s %zu obligations, %.2f s%s\n", R.Name.c_str(),
              VerdictText, R.Obligations.size(), R.TotalSeconds,
              R.CacheHit ? " (cached)" : "");
  for (const auto &Ob : R.Obligations) {
    if (Ob.St == checker::ObligationResult::Status::OS_Failed)
      std::printf("      %s failed%s%s\n", Ob.Name.c_str(),
                  Ob.Counterexample.empty() ? "" : ": ",
                  Ob.Counterexample.substr(0, 120).c_str());
    else if (Ob.unknown())
      std::printf("      %s undecided [%s]: %s\n", Ob.Name.c_str(),
                  Ob.Err.kindName(), Ob.Err.Message.c_str());
  }
}

/// Proves every registered definition. The default path is one batched
/// check (all obligations fan out over the pool at once); --fail-fast
/// instead checks definitions one request at a time, analyses first, so
/// it can stop at the first one not proven sound. Both assemble the
/// suite with api::assembleSuite, so counts, the §6 gate, and quarantine
/// remarks agree.
api::SuiteResult checkModule(api::CobaltService &Svc,
                             const cli::CommonOptions &Opts, bool Quiet) {
  api::SuiteResult Summary;
  std::vector<support::Remark> Remarks;
  if (!Opts.FailFast) {
    api::CheckResponse Resp = Svc.check(api::CheckRequest{});
    Summary = std::move(Resp.Suite);
    Remarks = std::move(Resp.Remarks);
    if (!Quiet)
      for (const checker::CheckReport &R : Summary.Reports)
        printReport(R);
  } else {
    const size_t AnalysisCount = Svc.analyses().size();
    std::vector<checker::CheckReport> Reports;
    for (size_t I = 0; I < Svc.definitionCount(); ++I) {
      bool IsAnalysis = I < AnalysisCount;
      api::CheckRequest Req;
      Req.Only = {IsAnalysis ? Svc.analyses()[I].Name
                             : Svc.optimizations()[I - AnalysisCount].Name};
      api::CheckResponse Resp = Svc.check(Req);
      // Responses list analyses first, so this picks the right report
      // even when an analysis and an optimization share a name.
      Reports.push_back(IsAnalysis ? Resp.Suite.Reports.front()
                                   : Resp.Suite.Reports.back());
      if (!Quiet)
        printReport(Reports.back());
      if (!Reports.back().Sound)
        break;
    }
    size_t Checked = Reports.size();
    Summary = api::assembleSuite(std::move(Reports),
                                 std::min(Checked, AnalysisCount), Remarks);
  }
  for (const support::Remark &R : Remarks)
    printRemark(R, Opts);
  if (!Quiet)
    for (const std::string &Name : Summary.Conditional)
      std::printf("  %-24s note: proven, but an assumed analysis is "
                  "not — treated as unproven\n",
                  Name.c_str());
  return Summary;
}

//===----------------------------------------------------------------------===//
// Subcommands.
//===----------------------------------------------------------------------===//

int cmdCheck(const char *ModulePath, const cli::CommonOptions &Opts) {
  support::Expected<CobaltModule> Module = api::loadModule(ModulePath);
  if (!Module) {
    std::fprintf(stderr, "%s\n", Module.error().str().c_str());
    return ExitUsage;
  }
  if (!Opts.ReportJson)
    std::printf("checking %zu label(s), %zu analysis(es), %zu "
                "optimization(s) from %s:\n",
                Module->Labels.size(), Module->Analyses.size(),
                Module->Optimizations.size(), ModulePath);
  std::shared_ptr<api::CobaltService> Svc = api::CobaltService::Builder()
                                                .config(Opts.Config)
                                                .addModule(std::move(*Module))
                                                .build();
  api::SuiteResult Summary = checkModule(*Svc, Opts, /*Quiet=*/Opts.ReportJson);
  int Exit = api::CobaltService::exitCodeFor(Summary,
                                             /*PipelineDegraded=*/false);

  if (Opts.ReportJson) {
    std::string Out = "{\n  \"command\": \"check\",\n";
    api::emitDefinitionsJson(Out, Summary.Reports);
    emitTelemetry(Svc->telemetry(), Opts, &Out);
    Out += ",\n  \"exit\": " + std::to_string(Exit) + "\n}\n";
    std::fputs(Out.c_str(), stdout);
    return Exit;
  }

  if (Summary.Unsound > 0)
    std::printf("REJECTED definitions present\n");
  else if (Exit == ExitContained)
    std::printf("containment degraded: prover workers died past their "
                "restart budget; %u definition(s) unproven "
                "(no counterexample found)\n",
                Summary.Unproven);
  else if (Summary.Unproven > 0)
    std::printf("infrastructure degraded: %u definition(s) unproven "
                "(no counterexample found)\n",
                Summary.Unproven);
  else
    std::printf("all definitions proven sound\n");
  emitTelemetry(Svc->telemetry(), Opts, nullptr);
  return Exit;
}

/// The shared check-gate-optimize front half of `opt` and `run`.
struct GatedPipeline {
  std::shared_ptr<api::CobaltService> Svc; ///< Null if the module failed.
  api::SuiteResult Summary;
  api::PipelineResult Pipeline;
  ir::Program Original;  ///< As parsed (run's before/after baseline).
  ir::Program Optimized; ///< Original after the proven passes.
  bool Ran = false;      ///< False: refused or bad input; see Exit.
  int Exit = ExitAllSound;

  support::Telemetry *telemetry() const {
    return Svc ? Svc->telemetry() : nullptr;
  }
};

GatedPipeline gateAndOptimize(const char *ModulePath,
                              const char *ProgramPath,
                              const cli::CommonOptions &Opts) {
  GatedPipeline G;
  G.Exit = ExitUsage;
  support::Expected<CobaltModule> Module = api::loadModule(ModulePath);
  if (!Module) {
    std::fprintf(stderr, "%s\n", Module.error().str().c_str());
    return G;
  }
  support::Expected<ir::Program> Prog = api::loadProgram(ProgramPath);
  if (!Prog) {
    std::fprintf(stderr, "%s: %s\n", ProgramPath,
                 Prog.error().str().c_str());
    return G;
  }
  G.Original = std::move(*Prog);
  G.Svc = api::CobaltService::Builder()
              .config(Opts.Config)
              .addModule(std::move(*Module))
              .build();

  if (!Opts.ReportJson)
    std::printf("== soundness gate ==\n");
  G.Summary = checkModule(*G.Svc, Opts, /*Quiet=*/Opts.ReportJson);

  size_t Total = G.Svc->definitionCount();
  size_t Proven = G.Summary.ProvenAnalyses.size() +
                  G.Summary.ProvenOptimizations.size();
  bool AllProven = G.Summary.Unsound == 0 && G.Summary.Unproven == 0 &&
                   Proven == Total;
  if (!AllProven && !Opts.KeepGoing) {
    std::fprintf(stderr,
                 "refusing to run: module contains %s definitions "
                 "(use --keep-going to apply the proven subset)\n",
                 G.Summary.Unsound > 0 ? "rejected" : "unproven");
    G.Exit = api::CobaltService::exitCodeFor(G.Summary,
                                             /*PipelineDegraded=*/false);
    return G;
  }
  if (!AllProven && !Opts.ReportJson)
    std::printf("\n== keep-going: applying the proven subset only ==\n");
  unsigned Skipped = static_cast<unsigned>(Total - Proven);
  if (Skipped && !Opts.ReportJson)
    std::printf("  skipped %u unproven definition(s)\n", Skipped);

  if (!Opts.ReportJson)
    std::printf("\n== optimizing ==\n");
  api::PipelineRequest Req;
  Req.Prog = G.Original;
  Req.PassNames = G.Summary.provenPassNames();
  Req.SelectedOnly = true;
  api::PipelineResponse Resp = G.Svc->run(std::move(Req));
  G.Pipeline = std::move(Resp.Result);
  G.Optimized = std::move(Resp.Prog);
  for (const engine::PassReport &R : G.Pipeline.Reports)
    for (const support::Remark &Rem : R.Remarks)
      printRemark(Rem, Opts);
  if (!Opts.ReportJson) {
    for (const engine::PassReport &R : G.Pipeline.Reports) {
      if (R.AppliedCount)
        std::printf("  %-24s %-10s rewrote %u site(s)\n",
                    R.PassName.c_str(), R.ProcName.c_str(),
                    R.AppliedCount);
      if (R.failed())
        std::printf("  %-24s %-10s FAILED [%s]%s%s\n", R.PassName.c_str(),
                    R.ProcName.c_str(), R.Err.kindName(),
                    R.RolledBack ? ", rolled back" : "",
                    R.Err.Message.empty()
                        ? ""
                        : (": " + R.Err.Message).c_str());
    }
    std::printf("  total rewrites: %u\n", G.Pipeline.Applied);
  }
  G.Ran = true;
  G.Exit = api::CobaltService::exitCodeFor(G.Summary, G.Pipeline.Degraded);
  return G;
}

int cmdOpt(const char *ModulePath, const char *ProgramPath,
           const cli::CommonOptions &Opts) {
  GatedPipeline G = gateAndOptimize(ModulePath, ProgramPath, Opts);
  if (!G.Ran) {
    emitTelemetry(G.telemetry(), Opts, nullptr);
    return G.Exit;
  }

  if (Opts.ReportJson) {
    std::string Out = "{\n  \"command\": \"opt\",\n";
    api::emitDefinitionsJson(Out, G.Summary.Reports);
    Out += ",\n";
    api::emitPipelineJson(Out, G.Pipeline.Reports);
    Out += ",\n  \"optimized_il\": \"" +
           support::jsonEscape(ir::toString(G.Optimized)) + "\"";
    emitTelemetry(G.telemetry(), Opts, &Out);
    Out += ",\n  \"exit\": " + std::to_string(G.Exit) + "\n}\n";
    std::fputs(Out.c_str(), stdout);
    return G.Exit;
  }
  std::printf("\n%s\n", ir::toString(G.Optimized).c_str());
  emitTelemetry(G.telemetry(), Opts, nullptr);
  return G.Exit;
}

int cmdRun(const char *ModulePath, const char *ProgramPath,
           const char *InputText, const cli::CommonOptions &Opts) {
  GatedPipeline G = gateAndOptimize(ModulePath, ProgramPath, Opts);
  if (!G.Ran) {
    emitTelemetry(G.telemetry(), Opts, nullptr);
    return G.Exit;
  }

  int64_t Input = InputText ? std::atoll(InputText) : 0;
  ir::Interpreter IO(G.Original), IT(G.Optimized);
  ir::RunResult RO = IO.run(Input), RT = IT.run(Input);

  if (Opts.ReportJson) {
    std::string Out = "{\n  \"command\": \"run\",\n";
    api::emitDefinitionsJson(Out, G.Summary.Reports);
    Out += ",\n";
    api::emitPipelineJson(Out, G.Pipeline.Reports);
    Out += ",\n  \"input\": " + std::to_string(Input);
    Out += ",\n  \"original_result\": \"" + support::jsonEscape(RO.str()) +
           "\"";
    Out += ",\n  \"optimized_result\": \"" + support::jsonEscape(RT.str()) +
           "\"";
    emitTelemetry(G.telemetry(), Opts, &Out);
    Out += ",\n  \"exit\": " + std::to_string(G.Exit) + "\n}\n";
    std::fputs(Out.c_str(), stdout);
    return G.Exit;
  }

  std::printf("\n%s\n", ir::toString(G.Optimized).c_str());
  std::printf("main(%lld): original %s, optimized %s\n",
              static_cast<long long>(Input), RO.str().c_str(),
              RT.str().c_str());
  emitTelemetry(G.telemetry(), Opts, nullptr);
  return G.Exit;
}

int cmdValidate(const char *OrigPath, const char *CandPath,
                const cli::CommonOptions &Opts) {
  support::Expected<ir::Program> Orig = api::loadProgram(OrigPath);
  if (!Orig) {
    std::fprintf(stderr, "%s: %s\n", OrigPath, Orig.error().str().c_str());
    return ExitUsage;
  }
  support::Expected<ir::Program> Cand = api::loadProgram(CandPath);
  if (!Cand) {
    std::fprintf(stderr, "%s: %s\n", CandPath, Cand.error().str().c_str());
    return ExitUsage;
  }

  std::shared_ptr<api::CobaltService> Svc =
      api::CobaltService::Builder().config(Opts.Config).build();
  api::ValidateRequest VR;
  VR.Original = std::move(*Orig);
  VR.Candidate = std::move(*Cand);
  api::ValidateResponse R = Svc->validate(std::move(VR));
  if (!R.ok()) {
    std::fprintf(stderr, "cobaltc: %s\n", R.Err.str().c_str());
    return ExitUsage;
  }
  int Exit = api::CobaltService::exitCodeFor(R.Report);

  if (Opts.ReportJson) {
    std::string Out = "{\n  \"command\": \"validate\",\n";
    api::emitValidationJson(Out, R.Report);
    emitTelemetry(Svc->telemetry(), Opts, &Out);
    Out += ",\n  \"exit\": " + std::to_string(Exit) + "\n}\n";
    std::fputs(Out.c_str(), stdout);
    return Exit;
  }

  std::printf("%s", R.Report.str().c_str());
  emitTelemetry(Svc->telemetry(), Opts, nullptr);
  return Exit;
}

//===----------------------------------------------------------------------===//
// Client mode.
//===----------------------------------------------------------------------===//

/// The exit code a client response maps to: the server-computed "exit"
/// member for ok responses, usage for request errors. Transport
/// failures never reach here (exit 5 happens at the call sites).
int clientExit(const std::string &Response) {
  std::optional<service::JsonValue> Doc = service::parseJson(Response);
  if (!Doc)
    return ExitUsage;
  const service::JsonValue *Status = Doc->find("status");
  if (!Status || Status->asString() != "ok")
    return ExitUsage;
  if (const service::JsonValue *Exit = Doc->find("exit"))
    return static_cast<int>(Exit->asI64(ExitAllSound));
  return ExitAllSound;
}

/// Renders `client stats` as the human-readable telemetry summary.
/// Pure function of the response document: reads the embedded metrics
/// registry (counters + log-bucketed histograms) and prints the table;
/// anything absent (daemon without --telemetry) degrades to the header
/// line alone.
void renderClientStats(const service::JsonValue &Doc) {
  auto U64 = [](const service::JsonValue *V) -> unsigned long long {
    return V ? V->asU64() : 0;
  };
  auto Dbl = [](const service::JsonValue *V) -> double {
    return V && V->K == service::JsonValue::Kind::JK_Number
               ? std::strtod(V->Raw.c_str(), nullptr)
               : 0.0;
  };
  std::printf("cobaltd: %llu definition(s), %llu cache hit(s)\n",
              U64(Doc.find("definitions")), U64(Doc.find("cache_hits")));
  const service::JsonValue *Metrics = Doc.find("metrics");
  if (!Metrics) {
    std::printf("  (daemon has no telemetry session; start it with "
                "--telemetry for counters)\n");
    return;
  }
  const service::JsonValue *Counters = Metrics->find("counters");
  const service::JsonValue *Histograms = Metrics->find("histograms");
  auto C = [&](const char *Name) -> unsigned long long {
    return Counters ? U64(Counters->find(Name)) : 0;
  };
  std::printf("-- telemetry --\n");
  std::printf("  requests     %llu total (check %llu, run %llu, error "
              "%llu)\n",
              C("service.requests"), C("service.requests.check"),
              C("service.requests.run"), C("service.requests.error"));
  std::printf("  dedup        %llu leader(s), %llu await(s), %llu "
              "served\n",
              C("service.dedup.leader"), C("service.dedup.await"),
              C("service.dedup.served"));
  std::printf("  cache mem    %llu hits / %llu misses\n",
              C("cache.mem.hits"), C("cache.mem.misses"));
  std::printf("  cache disk   %llu hits / %llu misses, %llu stores, "
              "%llu corrupt\n",
              C("cache.disk.hits"), C("cache.disk.misses"),
              C("cache.disk.stores"), C("cache.disk.corrupt"));
  std::printf("  obligations  %llu (proven %llu, failed %llu, unknown "
              "%llu)\n",
              C("checker.obligations"), C("checker.obligations.proven"),
              C("checker.obligations.failed"),
              C("checker.obligations.unknown"));
  std::printf("  workers      %llu spawned, %llu restarted, %llu "
              "quarantined\n",
              C("worker.spawns"), C("worker.restarts"),
              C("worker.quarantined"));
  // Per-request-type latency percentiles from the daemon's log-bucketed
  // histograms (absent until the first request of that type arrives).
  static const struct {
    const char *Metric;
    const char *Label;
  } Latency[] = {{"service.latency.check", "check"},
                 {"service.latency.run", "run"},
                 {"service.latency.stats", "stats"}};
  for (const auto &L : Latency) {
    const service::JsonValue *H =
        Histograms ? Histograms->find(L.Metric) : nullptr;
    if (!H || U64(H->find("count")) == 0)
      continue;
    std::printf("  latency ms   %-5s p50 %.3f  p90 %.3f  p99 %.3f  "
                "(n=%llu, max %.3f)\n",
                L.Label, Dbl(H->find("p50")), Dbl(H->find("p90")),
                Dbl(H->find("p99")), U64(H->find("count")),
                Dbl(H->find("max")));
  }
}

int cmdClient(const std::vector<const char *> &Positional,
              const cli::CommonOptions &Opts) {
  if (Positional.size() < 2)
    return usage();
  const char *Verb = Positional[1];
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "cobaltc: client mode requires --socket\n");
    return ExitUsage;
  }

  std::string Request;
  if (std::strcmp(Verb, "ping") == 0 && Positional.size() == 2) {
    Request = service::makePingRequest();
  } else if (std::strcmp(Verb, "check") == 0 && Positional.size() == 2) {
    Request = service::makeCheckRequest(Opts.Only);
  } else if (std::strcmp(Verb, "run") == 0 && Positional.size() == 3) {
    std::ifstream In(Positional[2]);
    if (!In) {
      std::fprintf(stderr, "cobaltc: cannot read '%s'\n", Positional[2]);
      return ExitUsage;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    Request = service::makeRunRequest(Text.str(), Opts.Only,
                                      /*SelectedOnly=*/!Opts.Only.empty());
  } else if (std::strcmp(Verb, "validate") == 0 &&
             Positional.size() == 4) {
    std::string Texts[2];
    for (int I = 0; I < 2; ++I) {
      std::ifstream In(Positional[2 + I]);
      if (!In) {
        std::fprintf(stderr, "cobaltc: cannot read '%s'\n",
                     Positional[2 + I]);
        return ExitUsage;
      }
      std::ostringstream Text;
      Text << In.rdbuf();
      Texts[I] = Text.str();
    }
    Request = service::makeValidateRequest(Texts[0], Texts[1]);
  } else if (std::strcmp(Verb, "stats") == 0 && Positional.size() == 2) {
    Request = service::makeStatsRequest();
  } else if (std::strcmp(Verb, "shutdown") == 0 &&
             Positional.size() == 2) {
    Request = service::makeShutdownRequest();
  } else {
    return usage();
  }

  service::Client C;
  if (support::Error E = C.connect(Opts.SocketPath); E.failed()) {
    std::fprintf(stderr, "cobaltc: %s\n", E.str().c_str());
    return ExitUnreachable;
  }
  support::Expected<std::string> R = C.request(Request, Opts.DeadlineMs);
  if (!R) {
    std::fprintf(stderr, "cobaltc: %s\n", R.error().str().c_str());
    return ExitUnreachable;
  }
  // `stats` is for humans by default; every other verb (and
  // --report=json) passes the daemon's bytes through untouched.
  if (std::strcmp(Verb, "stats") == 0 && !Opts.ReportJson) {
    std::optional<service::JsonValue> Doc = service::parseJson(*R);
    if (Doc && Doc->find("status") &&
        Doc->find("status")->asString() == "ok") {
      renderClientStats(*Doc);
      return ExitAllSound;
    }
  }
  std::printf("%s\n", R->c_str());
  return clientExit(*R);
}

} // namespace

int main(int Argc, char **Argv) {
  // Load any COBALT_FAULTS plan up front and surface it: silent fault
  // injection in a soundness tool would be a debugging nightmare.
  support::FaultInjector &FI = support::FaultInjector::instance();
  if (!FI.empty())
    std::fprintf(stderr,
                 "cobaltc: fault injection active (COBALT_FAULTS)\n");

  if (Argc < 2)
    return usage();
  if (std::strcmp(Argv[1], "stdlib") == 0) {
    std::printf("%s", opts::StdlibCobaltSource);
    return 0;
  }

  // Client mode parses the client flag set; everything else the local
  // one. Both come from the same table.
  bool ClientMode = std::strcmp(Argv[1], "client") == 0;
  cli::CommonOptions Opts;
  std::vector<const char *> Positional;
  if (!cli::parseFlags(Argc, Argv, "cobaltc",
                       ClientMode ? ClientFlagSets : LocalFlagSets, Opts,
                       Positional))
    return usage();

  if (ClientMode)
    return cmdClient(Positional, Opts);
  if (!Positional.empty() && std::strcmp(Positional[0], "check") == 0 &&
      Positional.size() == 2)
    return cmdCheck(Positional[1], Opts);
  if (!Positional.empty() && std::strcmp(Positional[0], "opt") == 0 &&
      Positional.size() == 3)
    return cmdOpt(Positional[1], Positional[2], Opts);
  if (!Positional.empty() && std::strcmp(Positional[0], "run") == 0 &&
      (Positional.size() == 3 || Positional.size() == 4))
    return cmdRun(Positional[1], Positional[2],
                  Positional.size() == 4 ? Positional[3] : nullptr, Opts);
  if (!Positional.empty() &&
      std::strcmp(Positional[0], "validate") == 0 &&
      Positional.size() == 3)
    return cmdValidate(Positional[1], Positional[2], Opts);
  return usage();
}
