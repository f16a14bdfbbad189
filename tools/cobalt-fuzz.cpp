//===- cobalt-fuzz.cpp - Differential fuzzing driver ----------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Differential fuzzing harness over the CobaltService API
/// (DESIGN.md §11):
///
///   cobalt-fuzz [flags]
///
///   --suite=NAME        sound | buggy | mutants | all (default buggy)
///   --seed <n>          base seed; run I is fully determined by seed+I
///   --runs <n>          generated programs (default 200)
///   --time-budget <s>   stop after this many seconds (batch-granular;
///                       0 = none). The JSON never contains wall-clock,
///                       so a completed fixed---runs campaign is
///                       bit-identical at every --jobs width.
///   --jobs <n>          thread-pool width (1 = sequential, 0 = one per
///                       hardware thread); never changes the results
///   --minimize / --no-minimize
///                       delta-debug findings (default on)
///   --mutants <n>       single-edit program mutants per seed (default 2)
///   --corpus-dir <dir>  write minimized reproducers + manifest there
///   --check             recompute verdicts with the live checker
///                       instead of trusting the documented ones — the
///                       full checker-cross-check mode. Each target is
///                       proven on its own service (its analyses + its
///                       rule), and a rule that assumes a rejected
///                       analysis takes that analysis's verdict (§6)
///   --require-expected  exit 1 unless every observable seeded bug
///                       produced a divergence (the CI smoke assertion)
///   --validate          adversarial translation-validation mode
///                       (DESIGN.md §14): miscompile generated programs
///                       with the selected rule suite, validate each
///                       (original, miscompiled) pair, and cross-check
///                       the verdict against the differential
///                       interpreter. A divergent pair verdicted
///                       Equivalent ("blessed miscompile") exits 1. With
///                       --corpus-dir, retained pairs are written as
///                       .orig.il/.cand.il files plus a manifest; with
///                       --minimize they are delta-debugged first (and
///                       re-validated — reduction must not flip a verdict
///                       to Equivalent).
///   --trace-out=FILE / --metrics-out=FILE
///                       telemetry dumps, as in cobaltc
///
/// Prints a JSON summary on stdout; throughput (which carries wall-clock
/// noise) goes to stderr.
///
/// Exit codes:
///   0  no checker-missed divergence (and --require-expected satisfied)
///   1  a divergence on a rule the checker calls Sound — a checker
///      soundness bug, the headline failure — or a missing expected one
///   2  usage / I/O error
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "ir/Printer.h"
#include "support/FaultInjection.h"
#include "support/JsonEscape.h"
#include "validate/Adversary.h"

#include "Flags.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace cobalt;
using support::jsonEscape;

namespace {

enum ExitCode { ExitClean = 0, ExitFailure = 1, ExitUsage = 2 };

int usage() {
  std::fprintf(
      stderr,
      "usage: cobalt-fuzz [flags]\n"
      "flags: --suite=[sound|buggy|mutants|all]  --seed <n>  --runs <n>\n"
      "       --time-budget <seconds>  --jobs <n>\n"
      "       --minimize | --no-minimize  --mutants <n>\n"
      "       --corpus-dir <dir>  --check  --require-expected\n"
      "       --validate  attack the translation validator instead of the\n"
      "                   checker: miscompile with the buggy rule suite,\n"
      "                   cross-check each verdict against the\n"
      "                   differential-interpreter ground truth\n"
      "       --trace-out=FILE  --metrics-out=FILE\n"
      "exit:  0 clean; 1 checker-missed divergence, missing expected\n"
      "       divergence, or (--validate) a validator-blessed miscompile;\n"
      "       2 usage/input error\n");
  return ExitUsage;
}

struct Options {
  std::string Suite = "buggy";
  fuzz::FuzzOptions Fuzz;
  unsigned Jobs = 1;
  std::string CorpusDir;
  bool Check = false;
  bool RequireExpected = false;
  bool Validate = false;
  std::string TraceOut, MetricsOut;
};

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  Opts.Fuzz.Runs = 200;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto TakesValue = [&](const char *Flag, const char *&Out) {
      if (std::strcmp(Arg, Flag) != 0)
        return false;
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "cobalt-fuzz: %s requires a value\n", Flag);
        Out = nullptr;
        return true;
      }
      Out = Argv[++I];
      return true;
    };
    auto ValueOf = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return std::strncmp(Arg, Prefix, Len) == 0 ? Arg + Len : nullptr;
    };
    const char *Value = nullptr;
    if (TakesValue("--seed", Value)) {
      if (!Value)
        return false;
      Opts.Fuzz.Seed = std::strtoull(Value, nullptr, 10);
    } else if (TakesValue("--runs", Value)) {
      if (!Value)
        return false;
      Opts.Fuzz.Runs = static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
    } else if (TakesValue("--time-budget", Value)) {
      if (!Value)
        return false;
      Opts.Fuzz.TimeBudgetSec = std::strtod(Value, nullptr);
    } else if (TakesValue("--jobs", Value)) {
      if (!Value)
        return false;
      Opts.Jobs = static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
    } else if (TakesValue("--mutants", Value)) {
      if (!Value)
        return false;
      Opts.Fuzz.MutantsPerProgram =
          static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
    } else if (TakesValue("--corpus-dir", Value)) {
      if (!Value)
        return false;
      Opts.CorpusDir = Value;
    } else if (const char *V = ValueOf("--suite=")) {
      Opts.Suite = V;
      if (Opts.Suite != "sound" && Opts.Suite != "buggy" &&
          Opts.Suite != "mutants" && Opts.Suite != "all") {
        std::fprintf(stderr, "cobalt-fuzz: unknown suite '%s'\n", V);
        return false;
      }
    } else if (std::strcmp(Arg, "--minimize") == 0) {
      Opts.Fuzz.Minimize = true;
    } else if (std::strcmp(Arg, "--no-minimize") == 0) {
      Opts.Fuzz.Minimize = false;
    } else if (std::strcmp(Arg, "--check") == 0) {
      Opts.Check = true;
    } else if (std::strcmp(Arg, "--require-expected") == 0) {
      Opts.RequireExpected = true;
    } else if (std::strcmp(Arg, "--validate") == 0) {
      Opts.Validate = true;
    } else if (const char *V = ValueOf("--trace-out=")) {
      Opts.TraceOut = V;
    } else if (const char *V = ValueOf("--metrics-out=")) {
      Opts.MetricsOut = V;
    } else {
      std::fprintf(stderr, "cobalt-fuzz: unknown argument '%s'\n", Arg);
      return false;
    }
  }
  return true;
}

std::vector<fuzz::FuzzTarget> assembleTargets(const std::string &Suite) {
  std::vector<fuzz::FuzzTarget> Targets;
  auto Append = [&](std::vector<fuzz::FuzzTarget> More) {
    for (fuzz::FuzzTarget &T : More)
      Targets.push_back(std::move(T));
  };
  if (Suite == "sound" || Suite == "all")
    Append(fuzz::soundSuiteTargets());
  if (Suite == "buggy" || Suite == "all")
    Append(fuzz::buggySuiteTargets());
  if (Suite == "mutants" || Suite == "all")
    Append(fuzz::ruleMutantTargets());
  return Targets;
}

/// --check: replace each target's documented verdict with the live
/// checker's. Any disagreement is itself reported — the checker oracle
/// covering the *verdict* side of the contract.
///
/// Each target is proven on a service of its own, registered with
/// exactly its analyses and its rule: the rule's labels must reach the
/// registry, and one shared service could not hold two targets whose
/// analyses define the same label. The verdict is the §6-gated one — a
/// rule proven only under a rejected analysis takes that analysis's
/// verdict, since applying it is exactly as unsafe. The services run
/// under the campaign's telemetry session, so their spans and counters
/// land in the --trace-out/--metrics-out dumps.
void recomputeVerdicts(const api::CobaltConfig &Config,
                       std::vector<fuzz::FuzzTarget> &Targets) {
  api::CobaltConfig TargetConfig = Config;
  TargetConfig.Telemetry = false;
  auto Has = [](const std::vector<std::string> &Names,
                const std::string &Name) {
    return std::find(Names.begin(), Names.end(), Name) != Names.end();
  };
  for (fuzz::FuzzTarget &T : Targets) {
    api::CobaltService::Builder B;
    B.config(TargetConfig);
    for (const PureAnalysis &A : T.Analyses)
      B.addAnalysis(A);
    B.addOptimization(T.Opt);
    api::SuiteResult Suite = B.build()->check(api::CheckRequest{}).Suite;
    // Analyses come first; the rule's report is the last one.
    const checker::CheckReport &Rule = Suite.Reports.back();
    checker::CheckReport::Verdict V = Rule.V;
    if (Has(Suite.Conditional, Rule.Name))
      for (const checker::CheckReport &A : Suite.Reports)
        if (!A.Sound && Has(Rule.AssumedAnalyses, A.Name)) {
          V = A.V;
          break;
        }
    if (V != T.Verdict)
      std::fprintf(stderr,
                   "cobalt-fuzz: note: checker says %s for %s "
                   "(documented %s)\n",
                   fuzz::verdictName(V), T.Opt.Name.c_str(),
                   fuzz::verdictName(T.Verdict));
    T.Verdict = V;
  }
}

/// The JSON summary. Deliberately wall-clock-free: every value is a
/// deterministic function of (suite, seed, runs, targets), so CI can
/// byte-compare dumps across --jobs widths.
std::string summaryJson(const Options &Opts, const fuzz::FuzzSummary &Sum,
                        const std::vector<std::string> &MissingExpected) {
  std::string Out = "{\n";
  Out += "  \"suite\": \"" + jsonEscape(Opts.Suite) + "\",\n";
  Out += "  \"seed\": " + std::to_string(Sum.Seed) + ",\n";
  Out += "  \"runs_requested\": " + std::to_string(Sum.RunsRequested) + ",\n";
  Out += "  \"runs_executed\": " + std::to_string(Sum.RunsExecuted) + ",\n";
  Out += "  \"timed_out\": " + std::string(Sum.TimedOut ? "true" : "false") +
         ",\n";
  Out += "  \"pairs_diffed\": " + std::to_string(Sum.PairsDiffed) + ",\n";
  Out += "  \"divergences\": " + std::to_string(Sum.Divergences) + ",\n";
  Out += "  \"caught_by_checker\": " + std::to_string(Sum.CaughtByChecker) +
         ",\n";
  Out += "  \"checker_missed\": " + std::to_string(Sum.CheckerMissed) + ",\n";
  Out += "  \"missing_expected\": [";
  for (size_t I = 0; I < MissingExpected.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + jsonEscape(MissingExpected[I]) + "\"";
  }
  Out += "],\n  \"per_rule\": {";
  bool First = true;
  for (const auto &[Rule, RS] : Sum.PerRule) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Rule) +
           "\": {\"applications\": " + std::to_string(RS.Applications) +
           ", \"divergences\": " + std::to_string(RS.Divergences) + "}";
  }
  Out += "\n  },\n  \"findings\": [";
  for (size_t I = 0; I < Sum.Findings.size(); ++I) {
    const fuzz::FuzzFinding &F = Sum.Findings[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"rule\": \"" + jsonEscape(F.Rule) + "\"";
    Out += ", \"seed\": " + std::to_string(F.Seed);
    Out += ", \"from_mutant\": " + std::string(F.FromMutant ? "true" : "false");
    Out += ", \"input\": " + std::to_string(F.Div.Input);
    Out += ", \"kind\": \"" + std::string(F.Div.kindName()) + "\"";
    Out += ", \"verdict\": \"" + std::string(fuzz::verdictName(F.Verdict)) +
           "\"";
    Out += ", \"check\": \"" + std::string(fuzz::crossCheckName(F.Check)) +
           "\"";
    Out += ", \"stmts_before\": " + std::to_string(F.StatementsBefore);
    Out += ", \"stmts_after\": " + std::to_string(F.StatementsAfter);
    Out += ", \"reduce_rounds\": " + std::to_string(F.ReduceRounds);
    Out += ", \"reduce_fixpoint\": " +
           std::string(F.ReduceFixpoint ? "true" : "false");
    Out += ", \"narrowed_site\": " + std::to_string(F.NarrowedSite);
    Out += ", \"program\": \"" + jsonEscape(ir::toString(F.Original)) + "\"";
    Out += "}";
  }
  Out += "\n  ]\n}\n";
  return Out;
}

/// The --validate summary. Wall-clock-free for the same reason as
/// summaryJson: a fixed (seed, runs) campaign is byte-identical across
/// machines and --jobs widths.
std::string adversaryJson(const Options &Opts,
                          const validate::AdversarySummary &Sum) {
  std::string Out = "{\n";
  Out += "  \"mode\": \"validate\",\n";
  Out += "  \"suite\": \"" + jsonEscape(Opts.Suite) + "\",\n";
  Out += "  \"seed\": " + std::to_string(Sum.Seed) + ",\n";
  Out += "  \"runs_requested\": " + std::to_string(Sum.RunsRequested) + ",\n";
  Out += "  \"runs_executed\": " + std::to_string(Sum.RunsExecuted) + ",\n";
  Out += "  \"pairs_validated\": " + std::to_string(Sum.PairsValidated) +
         ",\n";
  Out += "  \"diverged\": " + std::to_string(Sum.Diverged) + ",\n";
  Out += "  \"caught\": " + std::to_string(Sum.Caught) + ",\n";
  Out += "  \"missed_unknown\": " + std::to_string(Sum.MissedUnknown) + ",\n";
  Out += "  \"extended_catch\": " + std::to_string(Sum.ExtendedCatch) + ",\n";
  Out += "  \"agree\": " + std::to_string(Sum.Agree) + ",\n";
  Out += "  \"unproven\": " + std::to_string(Sum.Unproven) + ",\n";
  Out += "  \"blessed_miscompiles\": " + std::to_string(Sum.Blessed) + ",\n";
  Out += "  \"per_rule\": {";
  bool First = true;
  for (const auto &[Rule, RS] : Sum.PerRule) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Rule) +
           "\": {\"applications\": " + std::to_string(RS.Applications) +
           ", \"diverged\": " + std::to_string(RS.Diverged) +
           ", \"caught\": " + std::to_string(RS.Caught) +
           ", \"missed_unknown\": " + std::to_string(RS.MissedUnknown) +
           ", \"extended_catch\": " + std::to_string(RS.ExtendedCatch) +
           ", \"blessed\": " + std::to_string(RS.Blessed) + "}";
  }
  Out += "\n  },\n  \"pairs\": [";
  for (size_t I = 0; I < Sum.Pairs.size(); ++I) {
    const validate::AdversaryPair &P = Sum.Pairs[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"rule\": \"" + jsonEscape(P.Rule) + "\"";
    Out += ", \"seed\": " + std::to_string(P.Seed);
    Out += ", \"class\": \"" +
           std::string(validate::adversaryClassName(P.Class)) + "\"";
    Out += ", \"verdict\": \"" + std::string(validate::verdictName(P.V)) +
           "\"";
    if (!P.Witness.empty())
      Out += ", \"witness\": \"" + jsonEscape(P.Witness) + "\"";
    Out += ", \"stmts_before\": " + std::to_string(P.StatementsBefore);
    Out += ", \"stmts_after\": " + std::to_string(P.StatementsAfter);
    Out += ", \"reduce_rounds\": " + std::to_string(P.ReduceRounds);
    Out += "}";
  }
  Out += "\n  ]\n}\n";
  return Out;
}

/// `cobalt-fuzz --validate`: the adversarial campaign of DESIGN.md §14.
/// The fuzzer switches sides — instead of probing the checker it
/// miscompiles programs and tries to sneak them past the validator.
int runValidateMode(const Options &Opts, api::CobaltService &Svc,
                    const std::vector<fuzz::FuzzTarget> &Targets) {
  validate::AdversaryOptions AO;
  AO.Seed = Opts.Fuzz.Seed;
  AO.Runs = Opts.Fuzz.Runs;
  AO.Minimize = Opts.Fuzz.Minimize;

  // Every pair is one validation request to the campaign's service.
  auto Validate = [&Svc](const ir::Program &Original,
                         const ir::Program &Candidate,
                         const validate::ValidationOptions &Options) {
    return Svc.validate({Original, Candidate, Options}).Report;
  };
  const auto Start = std::chrono::steady_clock::now();
  validate::AdversarySummary Sum =
      validate::runAdversary(Targets, AO, Validate);
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  if (!Opts.CorpusDir.empty())
    if (auto Err = validate::saveValidationCorpus(Opts.CorpusDir, Sum.Pairs)) {
      std::fprintf(stderr, "cobalt-fuzz: %s\n", Err->c_str());
      return ExitUsage;
    }

  std::fprintf(stderr,
               "cobalt-fuzz: --validate: %u run(s), %llu pair(s) validated "
               "in %.2f s, %u divergent (caught %u, unknown %u, extended "
               "%u), %u blessed\n",
               Sum.RunsExecuted,
               static_cast<unsigned long long>(Sum.PairsValidated), Elapsed,
               Sum.Diverged, Sum.Caught, Sum.MissedUnknown,
               Sum.ExtendedCatch, Sum.Blessed);

  std::fputs(adversaryJson(Opts, Sum).c_str(), stdout);

  if (Sum.Blessed > 0) {
    std::fprintf(stderr,
                 "cobalt-fuzz: FAILURE: %u validator-blessed "
                 "miscompile(s) — the validator called a divergent pair "
                 "Equivalent\n",
                 Sum.Blessed);
    return ExitFailure;
  }
  return ExitClean;
}

} // namespace

int main(int Argc, char **Argv) {
  support::FaultInjector &FI = support::FaultInjector::instance();
  if (!FI.empty())
    std::fprintf(stderr,
                 "cobalt-fuzz: fault injection active (COBALT_FAULTS)\n");

  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();

  api::CobaltConfig Config;
  Config.Jobs = Opts.Jobs;
  Config.Telemetry = !Opts.TraceOut.empty() || !Opts.MetricsOut.empty();
  if (Opts.Validate) {
    // The adversary measures verdict *safety*, not proof completeness:
    // Unknown is an acceptable outcome, so an unprovable obligation must
    // end fast, and end the same way on every machine and under any
    // load. A Z3 rlimit (solver steps, not milliseconds) decides that:
    // 3M is about 1.4x the largest spend (2.18M) of any obligation the
    // seed-1 smoke campaign proves. A retry under the same rlimit would
    // repeat the same query, and the default 30 s timeout is only a
    // backstop.
    Config.Prover.RLimit = 3000000;
    Config.Prover.Retries = 0;
  }
  // One service: its pool runs the campaign, it validates --validate's
  // pairs, and its session collects the campaign's telemetry.
  std::shared_ptr<api::CobaltService> Svc =
      api::CobaltService::Builder().config(Config).build();
  support::TelemetryScope Scope(Svc->telemetry());

  std::vector<fuzz::FuzzTarget> Targets = assembleTargets(Opts.Suite);
  if (Opts.Check)
    recomputeVerdicts(Config, Targets);

  if (Opts.Validate) {
    int Exit = runValidateMode(Opts, *Svc, Targets);
    cli::writeTelemetryFiles(Svc->telemetry(), Opts.TraceOut,
                             Opts.MetricsOut, "cobalt-fuzz");
    return Exit;
  }

  const auto Start = std::chrono::steady_clock::now();
  fuzz::FuzzSummary Sum = fuzz::runFuzz(Targets, Opts.Fuzz, Svc->pool());
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  std::vector<std::string> MissingExpected;
  for (const fuzz::FuzzTarget &T : Targets)
    if (T.ExpectDivergence && Sum.PerRule.at(T.Opt.Name).Divergences == 0)
      MissingExpected.push_back(T.Opt.Name);

  if (!Opts.CorpusDir.empty())
    if (auto Err = fuzz::saveCorpus(Opts.CorpusDir, Sum.Findings)) {
      std::fprintf(stderr, "cobalt-fuzz: %s\n", Err->c_str());
      return ExitUsage;
    }

  cli::writeTelemetryFiles(Svc->telemetry(), Opts.TraceOut, Opts.MetricsOut,
                           "cobalt-fuzz");

  // Throughput carries wall-clock noise: stderr only, never the JSON.
  std::fprintf(stderr,
               "cobalt-fuzz: %u run(s), %llu pair(s) diffed in %.2f s "
               "(%.0f execs/s), %u divergence(s), %zu finding(s)\n",
               Sum.RunsExecuted,
               static_cast<unsigned long long>(Sum.PairsDiffed), Elapsed,
               Elapsed > 0 ? 2.0 * static_cast<double>(Sum.PairsDiffed) *
                                 7.0 / Elapsed
                           : 0.0,
               Sum.Divergences, Sum.Findings.size());

  std::fputs(summaryJson(Opts, Sum, MissingExpected).c_str(), stdout);

  if (Sum.CheckerMissed > 0) {
    std::fprintf(stderr,
                 "cobalt-fuzz: FAILURE: %u divergence(s) on checker-Sound "
                 "rules\n",
                 Sum.CheckerMissed);
    return ExitFailure;
  }
  if (Opts.RequireExpected && !MissingExpected.empty()) {
    std::fprintf(stderr,
                 "cobalt-fuzz: FAILURE: %zu seeded bug(s) produced no "
                 "divergence\n",
                 MissingExpected.size());
    return ExitFailure;
  }
  return ExitClean;
}
