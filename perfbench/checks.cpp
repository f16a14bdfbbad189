//===- checks.cpp - Inputs with known answers, and the oracles ------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The benchmark judges outputs against known answers and against the
/// independent interpreter (ir::Interpreter), never against the compiler
/// under test: the suite's definitions are known Sound, the buggy variants of
/// opts/Buggy.h are known Unsound at a named obligation, the validation
/// pairs have known verdicts, an optimized program must agree with its
/// original wherever the original returns, and a warm daemon response
/// must repeat its priming response byte for byte.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Interp.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "service/Protocol.h"
#include "support/FaultInjection.h"

#include <cstdio>
#include <cstdlib>
#include <random>

using namespace cobalt;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Inputs.
//===----------------------------------------------------------------------===//

namespace {

api::CobaltConfig benchConfig() {
  api::CobaltConfig C;
  C.Jobs = 1;
  C.Telemetry = false;
  return C;
}

} // namespace

std::shared_ptr<api::CobaltService>
perfbench::buildSuiteService(const std::string &CacheDir) {
  api::CobaltService::Builder B;
  api::CobaltConfig Config = benchConfig();
  Config.CacheDir = CacheDir;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  for (const PureAnalysis &A : opts::allAnalyses())
    B.addAnalysis(A);
  for (const Optimization &O : opts::allOptimizations())
    B.addOptimization(O);
  return B.build();
}

std::vector<KnownRejection> perfbench::knownRejections() {
  // store_forward_self_pointer is left out: Z3 answers unknown on its
  // failing obligation, so it ends Unproven and its time measures the
  // prover timeout rather than work (EXPERIMENTS.md E2).
  std::vector<KnownRejection> Out;
  for (const opts::BuggyCase &C : opts::allBuggyOptimizations())
    if (C.Opt.Name != "store_forward_self_pointer")
      Out.push_back({C.Opt.Name, C.FailingObligation});
  return Out;
}

std::shared_ptr<api::CobaltService> perfbench::buildBuggyService() {
  api::CobaltService::Builder B;
  api::CobaltConfig Config = benchConfig();
  // One short attempt per obligation. Under the default escalation
  // (2 s, 10 s, 30 s) every rejection first waits out a proof-mode
  // timeout, so its time would measure the schedule rather than the
  // counterexample search.
  Config.Prover.TimeoutMs = RejectionTimeoutMs;
  Config.Prover.Retries = 0;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  for (const PureAnalysis &A : opts::allAnalyses())
    B.addAnalysis(A);
  std::vector<KnownRejection> Known = knownRejections();
  for (opts::BuggyCase &C : opts::allBuggyOptimizations())
    for (const KnownRejection &K : Known)
      if (K.Name == C.Opt.Name)
        B.addOptimization(std::move(C.Opt));
  return B.build();
}

namespace {

const char *SumLoop = R"(
proc main(n) {
  decl i;
  decl s;
  decl t;
  i := 0;
  s := 0;
  t := i < n;
  if t goto 7 else 11;
  s := s + i;
  i := i + 1;
  t := i < n;
  if t goto 7 else 11;
  return s;
}
)";

const char *SumLoopRenamed = R"(
proc main(n) {
  decl j;
  decl acc;
  decl c;
  j := 0;
  acc := 0;
  c := j < n;
  if c goto 7 else 11;
  acc := acc + j;
  j := j + 1;
  c := j < n;
  if c goto 7 else 11;
  return acc;
}
)";

const char *SumLoopTopTest = R"(
proc main(n) {
  decl i;
  decl s;
  decl t;
  i := 0;
  s := 0;
  t := i < n;
  if t goto 7 else 10;
  s := s + i;
  i := i + 1;
  if 1 goto 5 else 5;
  return s;
}
)";

const char *StraightOrig = R"(
proc main(n) {
  decl x;
  decl y;
  x := 3;
  y := x + n;
  return y;
}
)";

const char *StraightOpt = R"(
proc main(n) {
  decl x;
  decl y;
  x := 3;
  y := 3 + n;
  return y;
}
)";

const char *SumLoopMiscompiled = R"(
proc main(n) {
  decl i;
  decl s;
  decl t;
  i := 0;
  s := 0;
  t := i < n;
  if t goto 7 else 11;
  s := s + i;
  i := i + 2;
  t := i < n;
  if t goto 7 else 11;
  return s;
}
)";

} // namespace

const std::vector<ValidationPair> &perfbench::validationPairs() {
  using validate::Verdict;
  // The bench_validate pair set: alpha renaming, simulation with facts,
  // a rotated loop, and an off-by-one stride the probe must catch.
  static const std::vector<ValidationPair> Pairs = {
      {"alpha/renamed", SumLoop, SumLoopRenamed, Verdict::V_Equivalent},
      {"simulation/const-prop", StraightOrig, StraightOpt,
       Verdict::V_Equivalent},
      {"simulation/loop-rotated", SumLoopTopTest, SumLoop,
       Verdict::V_Equivalent},
      {"probe/miscompiled", SumLoop, SumLoopMiscompiled,
       Verdict::V_Inequivalent},
  };
  return Pairs;
}

std::vector<int64_t> perfbench::oracleInputs(uint64_t Seed) {
  std::vector<int64_t> Inputs = {0, 1, -1};
  std::mt19937_64 Rng(Seed);
  while (Inputs.size() < 8)
    Inputs.push_back(static_cast<int64_t>(Rng() % 201) - 100);
  return Inputs;
}

//===----------------------------------------------------------------------===//
// Oracles.
//===----------------------------------------------------------------------===//

namespace {

Failure responseFailure(const char *What, api::ResponseStatus S,
                        const support::Error &Err) {
  if (S == api::ResponseStatus::RS_Ok)
    return std::nullopt;
  return std::string(What) + ": status " + api::responseStatusName(S) +
         (Err.failed() ? ": " + Err.str() : std::string());
}

Failure singleReport(const api::CheckResponse &R, const std::string &Name) {
  if (Failure F = responseFailure("check", R.Status, R.Err))
    return F;
  if (R.Suite.Reports.size() != 1 || R.Suite.Reports[0].Name != Name)
    return "check " + Name + ": expected exactly its own report";
  return std::nullopt;
}

} // namespace

Failure perfbench::checkSound(const api::CheckResponse &R,
                              const std::string &Name) {
  if (Failure F = singleReport(R, Name))
    return F;
  const checker::CheckReport &Rep = R.Suite.Reports[0];
  if (Rep.V != checker::CheckReport::Verdict::V_Sound)
    return "check " + Name + ": known Sound, got " + Rep.str();
  return std::nullopt;
}

Failure perfbench::checkRejected(const api::CheckResponse &R,
                                 const KnownRejection &Known) {
  if (Failure F = singleReport(R, Known.Name))
    return F;
  const checker::CheckReport &Rep = R.Suite.Reports[0];
  if (Rep.V != checker::CheckReport::Verdict::V_Unsound)
    return "check " + Known.Name + ": known Unsound, got " + Rep.str();
  for (const checker::ObligationResult &Ob : Rep.Obligations)
    if (Ob.St == checker::ObligationResult::Status::OS_Failed &&
        Ob.Name.rfind(Known.FailingPrefix, 0) == 0)
      return std::nullopt;
  return "check " + Known.Name + ": rejected, but not at " +
         Known.FailingPrefix + ": " + Rep.str();
}

std::vector<ir::RunResult>
perfbench::runMain(const ir::Program &P, const std::vector<int64_t> &Inputs,
                   uint64_t Fuel) {
  ir::Interpreter I(P);
  std::vector<ir::RunResult> Runs;
  for (int64_t In : Inputs)
    Runs.push_back(I.run(In, Fuel));
  return Runs;
}

Failure perfbench::compareRuns(const std::vector<ir::RunResult> &Original,
                               const std::vector<ir::RunResult> &Optimized,
                               const std::vector<int64_t> &Inputs) {
  for (size_t K = 0; K < Inputs.size(); ++K) {
    const ir::RunResult &A = Original[K], &B = Optimized[K];
    if (!A.returned())
      continue; // soundness only constrains returning runs
    std::string Call = "main(" + std::to_string(Inputs[K]) + ")";
    if (!B.returned())
      return "optimized " + Call + " did not return (" + B.str() +
             ") where the original returned " + A.Result.str();
    if (!(A.Result == B.Result))
      return "optimized " + Call + " returned " + B.Result.str() +
             ", the original " + A.Result.str();
  }
  return std::nullopt;
}

Failure perfbench::checkInterpAgreement(const ir::Program &Original,
                                        const ir::Program &Optimized,
                                        const std::vector<int64_t> &Inputs) {
  return compareRuns(runMain(Original, Inputs), runMain(Optimized, Inputs),
                     Inputs);
}

Failure perfbench::checkPipeline(const api::PipelineResponse &R) {
  if (Failure F = responseFailure("run", R.Status, R.Err))
    return F;
  for (const engine::PassReport &P : R.Result.Reports)
    if (P.failed() || P.RolledBack || P.Quarantined)
      return "pass " + P.PassName + " on " + P.ProcName +
             (P.RolledBack ? " rolled back: " : " failed: ") + P.Err.str();
  if (R.Result.Degraded)
    return std::string("pipeline degraded");
  return std::nullopt;
}

Failure perfbench::checkValidation(const validate::ValidationReport &R,
                                   validate::Verdict Expected) {
  if (R.V == Expected)
    return std::nullopt;
  return std::string("validation verdict ") + validate::verdictName(R.V) +
         ", known " + validate::verdictName(Expected);
}

Failure perfbench::checkWarmResponse(const std::string &Got,
                                     const std::string &Primed) {
  if (Got == Primed)
    return std::nullopt;
  std::optional<service::JsonValue> Doc = service::parseJson(Got);
  const service::JsonValue *St = Doc ? Doc->find("status") : nullptr;
  std::string Status = St ? St->asString("?") : "unparseable";
  if (Status != "ok")
    return "warm response status '" + Status + "'";
  return std::string("warm response differs from its priming response");
}

bool perfbench::faultPlanActive() {
  const char *Env = std::getenv("COBALT_FAULTS");
  return (Env && *Env) || !support::FaultInjector::instance().empty();
}

void perfbench::failAllIfFaulted(Result &R) {
  if (!faultPlanActive())
    return;
  R.Failed = R.Attempted;
  R.Failures.push_back("a fault-injection plan is active");
}

//===----------------------------------------------------------------------===//
// Self-test: one planted wrong answer per oracle.
//===----------------------------------------------------------------------===//

int perfbench::runSelfTest() {
  unsigned Missed = 0;
  // Each case records a correct operation (the control) and a planted
  // wrong one; the oracle must pass the first and fail the second.
  auto Case = [&](const char *Kind, const Failure &Control,
                  const Failure &Planted) {
    Result R;
    R.record(Control);
    R.record(Planted);
    bool Ok = !Control && Planted;
    if (!Ok)
      ++Missed;
    std::printf("  %-22s error_rate %.2f  %s%s%s\n", Kind, R.errorRate(),
                Ok ? "caught" : "MISSED",
                Planted ? ": " : "", Planted ? Planted->c_str() : "");
    if (Control)
      std::printf("    control failed: %s\n", Control->c_str());
  };
  std::printf("perfbench self-test: one planted wrong answer per oracle\n");

  // Known verdicts: a Sound definition claimed Unsound.
  std::shared_ptr<api::CobaltService> Svc = buildSuiteService();
  api::CheckRequest CR;
  CR.Only = {"self_assign_removal"};
  CR.Jobs = 1;
  api::CheckResponse Sound = Svc->check(CR);
  Case("verdict", checkSound(Sound, "self_assign_removal"),
       checkRejected(Sound, {"self_assign_removal", "B1"}));

  // Failing-obligation prefixes: a rejection claimed at another
  // obligation.
  std::shared_ptr<api::CobaltService> Buggy = buildBuggyService();
  KnownRejection Known;
  for (const KnownRejection &K : knownRejections())
    if (K.Name == "self_assign_not_self")
      Known = K;
  CR.Only = {Known.Name};
  api::CheckResponse Rejected = Buggy->check(CR);
  Case("rejection obligation", checkRejected(Rejected, Known),
       checkRejected(Rejected, {Known.Name, "F3"}));

  // Interpreter agreement: a miscompiled "optimized" program.
  support::Expected<ir::Program> Orig = Svc->parseProgram(
      "proc main(x) {\n  decl a;\n  a := 3;\n  a := a + x;\n  return a;\n}\n");
  support::Expected<ir::Program> Bad = Svc->parseProgram(
      "proc main(x) {\n  decl a;\n  a := 4;\n  a := a + x;\n  return a;\n}\n");
  if (!Orig || !Bad) {
    std::printf("  self-test programs do not parse\n");
    return 1;
  }
  api::PipelineRequest PR;
  PR.Prog = *Orig;
  PR.Jobs = 1;
  api::PipelineResponse Run = Svc->run(PR);
  std::vector<int64_t> Inputs = oracleInputs(1);
  Case("interpreter agreement", checkInterpAgreement(*Orig, Run.Prog, Inputs),
       checkInterpAgreement(*Orig, *Bad, Inputs));

  // Pass reports: a rolled-back pass.
  api::PipelineResponse RolledBack = Run;
  if (!RolledBack.Result.Reports.empty())
    RolledBack.Result.Reports[0].RolledBack = true;
  Case("pass report", checkPipeline(Run), checkPipeline(RolledBack));

  // Byte identity of warm responses, and a non-ok status.
  std::string Primed = "{\"status\": \"ok\", \"protocol\": 1}";
  std::string Flipped = Primed;
  Flipped[Flipped.size() - 2] = '2';
  Case("warm byte identity", checkWarmResponse(Primed, Primed),
       checkWarmResponse(Flipped, Primed));
  Case("warm status", checkWarmResponse(Primed, Primed),
       checkWarmResponse("{\"status\": \"retry\"}", Primed));

  // Known validation verdicts: the miscompiled pair claimed Equivalent.
  const ValidationPair &Pair = validationPairs().back();
  api::ValidateRequest VR;
  VR.Original = *Svc->parseProgram(Pair.Original);
  VR.Candidate = *Svc->parseProgram(Pair.Candidate);
  VR.Jobs = 1;
  api::ValidateResponse V = Svc->validate(VR);
  Case("validation verdict", checkValidation(V.Report, Pair.Expected),
       checkValidation(V.Report, validate::Verdict::V_Equivalent));

  // A fault plan switched on in-process taints the whole run: the rule
  // main() applies after every workload, here over two correct operations.
  Result Faulted;
  Faulted.record(Failure());
  Faulted.record(Failure());
  support::FaultInjector::instance().configure(
      std::string(support::faults::CheckerProverStallMs) + "=1");
  failAllIfFaulted(Faulted);
  support::FaultInjector::instance().reset();
  bool Tainted = Faulted.Failed == Faulted.Attempted;
  Missed += !Tainted;
  std::printf("  %-22s error_rate %.2f  %s\n", "fault plan",
              Faulted.errorRate(), Tainted ? "caught" : "MISSED");

  std::printf("self-test: %s\n", Missed ? "FAILED" : "every planted error "
                                                    "caught");
  return Missed ? 1 : 0;
}
