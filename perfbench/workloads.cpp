//===- workloads.cpp - check_cold, opt_large, service_warm ----------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The three user paths of the system, each a workload that puts most of
/// the work on some layers and almost none on others:
///
///  * check_cold — `cobaltc check stdlib` cold, plus the buggy variants
///    the checker rejects: all checker, no engine.
///  * opt_large — the proven 21-pass pipeline over large generated
///    programs: all engine/core/ir, no checker.
///  * service_warm — a warm in-process cobaltd under a closed loop:
///    checks and validations are memo hits, so api/service do the work,
///    and small `run` requests give the engine small inputs.
///
/// Untraced runs report the end-to-end metrics. Traced runs pair an
/// untraced pass with a traced pass over the same code, where spans wrap
/// calls into each module's public functions (for opt_large a
/// pass-by-pass replay of the pipeline through the engine's entry
/// points), and report the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "checker/Obligations.h"
#include "engine/Dataflow.h"
#include "engine/Engine.h"
#include "ir/Cfg.h"
#include "ir/Generator.h"
#include "ir/Interp.h"
#include "ir/Printer.h"
#include "opts/StdlibCobalt.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"
#include "support/PersistentCache.h"

#include <algorithm>
#include <filesystem>
#include <random>
#include <set>
#include <sched.h>
#include <unistd.h>

using namespace cobalt;
using namespace perfbench;

namespace {

/// Times a proving set-up (opt_large, service_warm) runs per run; the
/// median is setup_s. check_cold's set-up is cheap and runs more often.
constexpr unsigned SetupRepeats = 2;

/// Spans of probe work (calls repeated beside the real ones to split a
/// time the libraries do not expose); kept out of every layer's self time.
constexpr const char *ProbeLayer = "probe";

double msSince(Clock::time_point Start) { return secondsSince(Start) * 1e3; }

/// SplitMix64: derives independent generator seeds from the run's seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Stream + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Code size: statements other than `skip`. Rewrites replace statements
/// one for one (a deleted assignment becomes skip), so the raw statement
/// count never moves.
unsigned stmtCount(const ir::Program &P) {
  unsigned N = 0;
  for (const ir::Procedure &Proc : P.Procs)
    for (const ir::Stmt &S : Proc.Stmts)
      N += !std::holds_alternative<ir::SkipStmt>(S.V);
  return N;
}

/// Times multiplied by a SpeedRef scale \p F.
std::vector<double> scaled(std::vector<double> Times, double F) {
  for (double &T : Times)
    T *= F;
  return Times;
}

/// The end-to-end metrics, shared by every workload, from times already
/// scaled to the machine's speed (SpeedRef); \p RawWallS is wall_s
/// unscaled, printed beside it. \p LatMs are the latencies the
/// percentiles are taken over, \p Requests the number completed in
/// \p TimedS.
void reportEndToEnd(Result &R, const std::vector<double> &SetupS,
                    double WallS, double RawWallS,
                    const std::vector<double> &LatMs, size_t Requests,
                    double TimedS, unsigned Rounds, const SpeedRef &Ref) {
  R.metric("setup_s", median(SetupS), "s");
  R.metric("wall_s", WallS, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("req_p50_ms", percentile(LatMs, 0.50), "ms");
  R.metric("req_p99_ms", percentile(LatMs, 0.99), "ms");
  R.metric("req_per_s", TimedS > 0 ? Requests / TimedS : 0.0, "1/s");
  R.note("setup_samples", static_cast<double>(SetupS.size()), "count");
  R.note("rounds", Rounds, "count");
  R.note("requests", static_cast<double>(Requests), "count");
  R.note("raw_wall_s", RawWallS, "s");
  R.note("speed_ref_p50_ms", Ref.medianMs(), "ms");
  R.note("speed_ref_nominal_ms", SpeedRef::RefNominalMs, "ms");
  R.note("speed_ref_samples", static_cast<double>(Ref.samples()), "count");
}

/// Traced-vs-untraced walls and per-layer self times.
void reportTraceWalls(Result &R, const Tracer &T,
                      const std::vector<double> &TracedS,
                      const std::vector<double> &UntracedS, double Rounds) {
  double Traced = median(TracedS), Untraced = median(UntracedS);
  R.metric("trace.wall_s", Traced, "s");
  R.metric("trace.untraced_wall_s", Untraced, "s");
  R.metric("trace.overhead_pct",
           Untraced > 0 ? (Traced / Untraced - 1.0) * 100.0 : 0.0, "%");
  for (const auto &[Layer, Ms] : T.selfMsByLayer())
    if (Layer != ProbeLayer)
      R.metric("self." + Layer + "_ms", Ms / Rounds, "ms");
}

//===----------------------------------------------------------------------===//
// Checker fixed-cost probe.
//===----------------------------------------------------------------------===//

/// What every obligation pays before its own goal: a fresh context with
/// the IL datatypes (an ObligationBuilder), the background axioms, and a
/// solve of a trivially unsat goal with those axioms loaded. Medians.
void probeFixedCost(const api::CobaltService &Svc, Result &R,
                    double ObligationsPerRound, double WallS) {
  std::map<std::string, const PureAnalysis *> ByLabel;
  for (const PureAnalysis &A : Svc.analyses())
    ByLabel[A.LabelName] = &A;
  std::vector<double> Ctx, Axioms, Trivial;
  for (unsigned I = 0; I < 25; ++I) {
    auto T0 = Clock::now();
    auto B = std::make_unique<checker::ObligationBuilder>(Svc.registry(),
                                                          ByLabel);
    Ctx.push_back(msSince(T0));
    z3::solver S(B->C);
    T0 = Clock::now();
    B->Enc.addBackgroundAxioms(S);
    Axioms.push_back(msSince(T0));
    z3::expr X = B->C.int_const("probe_x");
    S.add(!(X == X));
    T0 = Clock::now();
    z3::check_result CR = S.check();
    Trivial.push_back(msSince(T0));
    R.record(CR == z3::unsat
                 ? Failure()
                 : Failure("fixed-cost probe: trivial goal not unsat"));
  }
  double C = median(Ctx), A = median(Axioms), T = median(Trivial);
  R.metric("checker.ctx_setup_ms", C, "ms");
  R.metric("checker.axioms_ms", A, "ms");
  R.metric("checker.trivial_solve_ms", T, "ms");
  R.metric("checker.fixed_cost_share",
           WallS > 0 ? ObligationsPerRound * (C + A + T) / 1e3 / WallS : 0.0,
           "ratio");
}

//===----------------------------------------------------------------------===//
// Pipeline replay through the engine's public calls.
//===----------------------------------------------------------------------===//

/// Sums over the replays of a run (times in ms). runOptimization times
/// nothing itself, so the traced replay re-runs its parts as probes
/// beside it (probePass).
struct ReplayCounts {
  double FixpointIters = 0, Facts = 0, GenFacts = 0, AnalysisRuns = 0,
         Delta = 0, Applied = 0, Rollbacks = 0, StmtsAfter = 0;
  double OptimizeMs = 0, CfgMs = 0, SolveFwdMs = 0, SolveBwdMs = 0,
         UniverseMs = 0, GenMs = 0, ComputeDeltaMs = 0, ApplyMs = 0;
  double ProbeMs = 0; ///< Wall time of the probes: not pipeline work.
};

/// Probe durations of one optimization pass, in ms.
struct PassProbe {
  double Cfg = 0, Solve = 0, Universe = 0, Gen = 0, ComputeDelta = 0,
         Apply = 0;
};

/// Runs the parts of runOptimization(O, P) one by one through the public
/// calls, on the same (not yet rewritten) body, and counts the facts:
/// computeDelta, then its Cfg and solveGuard, buildUniverse and GEN, and
/// the optimization's choose plus applySites on a copy of the body.
PassProbe probePass(const Optimization &O, const ir::Procedure &P,
                    const LabelRegistry &Reg, const Labeling *L, Tracer &T,
                    ReplayCounts &C) {
  PassProbe Pr;
  auto Start = Clock::now();
  Span S(&T, ProbeLayer, "probe.pass");
  auto T0 = Clock::now();
  std::vector<MatchSite> Delta = engine::computeDelta(O.Pat, P, Reg, L);
  Pr.ComputeDelta = msSince(T0);
  ir::Procedure Copy = P;
  T0 = Clock::now();
  engine::applySites(O.Pat.To, Copy, O.Choose(Delta, Copy));
  Pr.Apply = msSince(T0);
  T0 = Clock::now();
  ir::Cfg G(P);
  Pr.Cfg = msSince(T0);
  {
    T0 = Clock::now();
    engine::GuardSolution Sol =
        engine::solveGuard(O.Pat.Dir, O.Pat.G, G, Reg, L);
    Pr.Solve = msSince(T0);
    for (const std::set<Substitution> &At : Sol.AtNode)
      C.Facts += static_cast<double>(At.size());
  }
  // GEN and the universe are computed inside solveGuard; time the same
  // calls again on their own.
  T0 = Clock::now();
  Universe Univ = buildUniverse(P);
  Pr.Universe = msSince(T0);
  T0 = Clock::now();
  for (int I = 0; I < P.size(); ++I)
    C.GenFacts += static_cast<double>(
        satisfyFormula(*O.Pat.G.Psi1, NodeContext{&P, I, &Reg, L, &Univ}, {})
            .size());
  Pr.Gen = msSince(T0);
  C.ProbeMs += msSince(Start);
  return Pr;
}

/// Replays CobaltService::run's pipeline (PassManager::runSelected with
/// one job per procedure, transactional, Jobs = 1) pass by pass:
/// runPureAnalysis for analyses, runOptimization for optimizations, with
/// the pass manager's snapshot copies and interpreter spot-check runs
/// around each rewrite. With a tracer, spans wrap each call and probes
/// split each optimization pass; without one, the same calls run bare
/// (the untraced reference of the tracing overhead). Returns the final
/// program, which must print identically to CobaltService::run's.
ir::Program replayPipeline(const api::CobaltService &Svc,
                           const std::vector<std::string> &Names,
                           const ir::Program &Input,
                           const std::vector<int64_t> &SpotInputs, Tracer *T,
                           ReplayCounts &C, Result &R, uint64_t ReqId) {
  struct Pass {
    const PureAnalysis *A;
    const Optimization *O;
  };
  std::vector<Pass> Pipeline;
  auto Selected = [&](const std::string &N) {
    return std::find(Names.begin(), Names.end(), N) != Names.end();
  };
  for (const PureAnalysis &A : Svc.analyses())
    if (Selected(A.Name))
      Pipeline.push_back({&A, nullptr});
  for (const Optimization &O : Svc.optimizations())
    if (Selected(O.Name))
      Pipeline.push_back({nullptr, &O});

  const LabelRegistry &Reg = Svc.registry();
  const engine::TxPolicy &Tx = Svc.config().Tx;
  std::vector<int64_t> Spot(
      SpotInputs.begin(),
      SpotInputs.begin() + std::min<size_t>(SpotInputs.size(),
                                            Tx.SpotCheckInputs));
  Span Top(T, "engine", "engine.pipeline", ReqId);
  ir::Program Out = Input;
  for (size_t PI = 0; PI < Input.Procs.size(); ++PI) {
    ir::Program Snap;
    {
      Span S(T, "ir", "ir.program_copy");
      Snap = Input;
    }
    ir::Procedure &P = Snap.Procs[PI];
    Labeling Labels(P.size());
    bool LabelsValid = true;

    auto RunAnalysis = [&](const PureAnalysis &A) {
      Span S(T, "engine", "engine.analysis");
      engine::runPureAnalysis(A, P, Reg, Labels);
      ++C.AnalysisRuns;
    };
    // A rewrite invalidates the labels; the pass manager recomputes them
    // by re-running every analysis before the current pass.
    auto ReplayLabels = [&](size_t Upto) {
      Labels.assign(P.size(), {});
      for (size_t K = 0; K < Upto; ++K)
        if (Pipeline[K].A)
          RunAnalysis(*Pipeline[K].A);
      LabelsValid = true;
    };

    for (size_t Pos = 0; Pos < Pipeline.size(); ++Pos) {
      if (!LabelsValid)
        ReplayLabels(Pos);
      if (const PureAnalysis *A = Pipeline[Pos].A) {
        RunAnalysis(*A);
        continue;
      }
      const Optimization &O = *Pipeline[Pos].O;
      bool Backward = O.Pat.Dir == Direction::D_Backward;
      const Labeling *L = Backward ? nullptr : &Labels;
      ir::Procedure Before;
      {
        Span S(T, "ir", "ir.program_copy");
        Before = P;
      }
      PassProbe Pr;
      if (T)
        Pr = probePass(O, P, Reg, L, *T, C);

      engine::RunStats Stats;
      bool Threw = false;
      {
        Span S(T, "engine", "engine.optimize");
        auto T0 = Clock::now();
        try {
          Stats = engine::runOptimization(O, P, Reg, L);
        } catch (...) {
          Threw = true;
        }
        double Ms = msSince(T0);
        if (T) {
          T->addChild("ir", "ir.cfg_build", Pr.Cfg / 1e3);
          T->addChild("core", "core.universe", Pr.Universe / 1e3);
          T->addChild("core", "core.gen", Pr.Gen / 1e3);
          C.OptimizeMs += Ms;
          C.CfgMs += Pr.Cfg;
          (Backward ? C.SolveBwdMs : C.SolveFwdMs) += Pr.Solve;
          C.UniverseMs += Pr.Universe;
          C.GenMs += Pr.Gen;
          C.ComputeDeltaMs += Pr.ComputeDelta;
          C.ApplyMs += Pr.Apply;
        }
      }
      C.FixpointIters += Stats.FixpointIters;
      C.Delta += Stats.DeltaSize;
      Failure F;
      if (!Threw && Tx.Transactional && Stats.AppliedCount > 0 &&
          Snap.findProc("main")) {
        // The spot-check's interpreter runs: rewritten body, then the
        // snapshot swapped in.
        Span S(T, "ir", "ir.interp");
        std::vector<ir::RunResult> New = runMain(Snap, Spot, Tx.SpotCheckFuel);
        std::swap(P, Before);
        std::vector<ir::RunResult> Old = runMain(Snap, Spot, Tx.SpotCheckFuel);
        std::swap(P, Before);
        F = compareRuns(Old, New, Spot);
      }
      if (Threw || F) {
        if (F)
          R.record("replay: pass " + O.Name + " on " + P.Name + ": " + *F);
        P = std::move(Before);
        ++C.Rollbacks;
        continue;
      }
      C.Applied += Stats.AppliedCount;
      if (Stats.AppliedCount > 0)
        LabelsValid = false;
    }
    Out.Procs[PI] = std::move(P);
  }
  C.StmtsAfter += stmtCount(Out);
  return Out;
}

void reportReplay(Result &R, const Tracer &T, const ReplayCounts &C,
                  double Rounds) {
  auto PerRound = [&](const char *Name, double V, const char *Unit) {
    R.metric(Name, std::max(0.0, V) / Rounds, Unit);
  };
  double Solve = C.SolveFwdMs + C.SolveBwdMs;
  PerRound("core.universe_ms", C.UniverseMs, "ms");
  PerRound("core.gen_ms", C.GenMs, "ms");
  PerRound("core.gen_facts", C.GenFacts, "count");
  PerRound("engine.solve_fwd_ms", C.SolveFwdMs, "ms");
  PerRound("engine.solve_bwd_ms", C.SolveBwdMs, "ms");
  PerRound("engine.fixpoint_ms", Solve - C.UniverseMs - C.GenMs, "ms");
  PerRound("engine.fixpoint_iters", C.FixpointIters, "count");
  PerRound("engine.facts", C.Facts, "count");
  // computeDelta minus its Cfg and solve: the Δ matching, plus freeing
  // the guard solution (a difference of separately timed calls).
  PerRound("engine.compute_delta_ms", C.ComputeDeltaMs - C.CfgMs - Solve,
           "ms");
  PerRound("engine.apply_ms", C.ApplyMs, "ms");
  PerRound("engine.optimize_ms", C.OptimizeMs, "ms");
  PerRound("engine.analysis_ms", T.totalMs("engine.analysis"), "ms");
  PerRound("engine.analysis_runs", C.AnalysisRuns, "count");
  PerRound("engine.delta", C.Delta, "count");
  PerRound("engine.applied", C.Applied, "count");
  R.metric("engine.applied_ratio", C.Delta > 0 ? C.Applied / C.Delta : 0.0,
           "ratio");
  PerRound("engine.rollbacks", C.Rollbacks, "count");
  PerRound("engine.pipeline_ms", T.totalMs("engine.pipeline") - C.ProbeMs,
           "ms");
  PerRound("engine.stmts_after", C.StmtsAfter, "count");
  PerRound("ir.cfg_build_ms", C.CfgMs, "ms");
  PerRound("ir.interp_ms", T.totalMs("ir.interp"), "ms");
  PerRound("ir.program_copy_ms", T.totalMs("ir.program_copy"), "ms");
  PerRound("ir.parse_ms", T.totalMs("ir.parse"), "ms");
}

} // namespace

//===----------------------------------------------------------------------===//
// check_cold.
//===----------------------------------------------------------------------===//

namespace {

/// Definitions of the stdlib .cob module (8 optimizations, 1 analysis).
constexpr size_t StdlibDefinitions = 9;

/// The services one check_cold round proves with.
struct ColdServices {
  std::shared_ptr<api::CobaltService> Svc, Buggy;
};

/// check_cold's set-up, the front-end work `cobaltc check stdlib` does
/// before its first proof: parse the stdlib .cob module, build the suite
/// service and the buggy-variant service.
ColdServices coldSetup(Result &R) {
  ColdServices S{buildSuiteService(), buildBuggyService()};
  support::Expected<CobaltModule> M =
      S.Svc->parseModule(opts::StdlibCobaltSource);
  if (!M)
    R.record("stdlib module does not parse: " + M.error().str());
  else if (M->Analyses.size() + M->Optimizations.size() != StdlibDefinitions)
    R.record(Failure("stdlib module: wrong definition count"));
  else
    R.record(Failure());
  return S;
}

/// A rejection obligation that ran at least the attempt timeout waited
/// the proof-mode attempt out before the counterexample search found its
/// model (a proof attempt ends sooner only with a verdict or an early
/// unknown): RejectionTimeoutMs of its time is the timeout, not work.
bool waitedOutTimeout(const checker::ObligationResult &Ob) {
  return Ob.Seconds * 1e3 >= RejectionTimeoutMs;
}

} // namespace

void perfbench::runCheckCold(const Options &O, Result &R, Tracer *T) {
  // Jobs = 1, a fresh service per round and no cache directory: every
  // round proves every definition from scratch, one CheckRequest per
  // definition in registration order, then the known rejections. The
  // seed does not enter: the inputs are the fixed stdlib and variants.
  std::vector<KnownRejection> Known = knownRejections();
  // Untraced times are scaled request by request (see CheckOne); RoundS
  // keeps the raw round walls.
  std::vector<double> SetupS, RoundS, ScaledRoundS, SuiteS, ReqMs, SoundMs,
      RejectMs;
  std::vector<double> TracedS, ObSeconds, CexSeconds;
  double Obligations = 0, Rlimit = 0, Attempts = 0, Unknown = 0, Cex = 0,
         CexTimeouts = 0, Timeouts = 0;
  unsigned Rounds = 0, TracedRounds = 0;
  uint64_t ReqId = 0;
  std::shared_ptr<api::CobaltService> Last;
  SpeedRef Ref;
  auto Start = Clock::now(), RoundStart = Start;
  double TimedS = 0;
  // Set-up is about a millisecond, and the machine's speed drifts over
  // seconds: take a set-up sample before every request, so the median
  // spans the whole run instead of its first moment.
  auto SampleSetup = [&] {
    auto S0 = Clock::now();
    coldSetup(R);
    SetupS.push_back(secondsSince(S0) * Ref.lastScale());
  };
  do {
    Ref.sample();
    RoundStart = Clock::now();
    ColdServices CS = coldSetup(R);
    SetupS.push_back(secondsSince(RoundStart) * Ref.lastScale());
    if (CS.Svc->telemetry() || CS.Buggy->telemetry()) {
      R.record(Failure("service built with telemetry on"));
      return;
    }
    // Traced runs alternate: even rounds are the untraced reference.
    Tracer *RT = T && Rounds % 2 == 1 ? T : nullptr;

    // A request takes a few hundred ms, less than the machine's speed
    // holds still, so each is scaled by the SpeedRef sample just before
    // it. The proof-mode timeouts it waits out are wall-clock time and
    // stay unscaled. Returns the raw and the scaled time, in ms.
    auto CheckOne = [&](api::CobaltService &S, const std::string &Name,
                        auto &&Judge, std::vector<double> &Kind) {
      Ref.sample();
      SampleSetup();
      bool Rejection = &Kind == &RejectMs;
      api::CheckRequest Req;
      Req.Only = {Name};
      Req.Jobs = 1;
      Span Sp(RT, "api", "api.check", ++ReqId);
      auto T0 = Clock::now();
      api::CheckResponse Resp = S.check(Req);
      double Ms = msSince(T0);
      double ObS = 0, WaitedMs = 0;
      for (const checker::CheckReport &Rep : Resp.Suite.Reports)
        for (const checker::ObligationResult &Ob : Rep.Obligations) {
          ObS += Ob.Seconds;
          bool Failed = Ob.St == checker::ObligationResult::Status::OS_Failed;
          bool WaitedOut = Rejection && waitedOutTimeout(Ob);
          WaitedMs += WaitedOut ? RejectionTimeoutMs : 0;
          if (!RT)
            Timeouts += WaitedOut;
          if (!T)
            continue;
          ObSeconds.push_back(Ob.Seconds);
          // The counterexample search alone: less the timeout it waited.
          if (Failed)
            CexSeconds.push_back(Ob.Seconds -
                                 (WaitedOut ? RejectionTimeoutMs / 1e3 : 0));
          if (Rounds == 0) {
            ++Obligations;
            // Rejections stop at wall-clock timeouts, so only the Sound
            // half's rlimit repeats exactly.
            if (!Rejection)
              Rlimit += static_cast<double>(Ob.RlimitSpent);
            Attempts += Ob.Attempts;
            Unknown += Ob.unknown();
            Cex += Failed;
            CexTimeouts += Failed && WaitedOut;
          }
        }
      if (RT)
        RT->addChild("checker", "checker.obligations", ObS);
      R.record(Judge(Resp));
      WaitedMs = std::min(WaitedMs, Ms);
      double Scaled = WaitedMs + (Ms - WaitedMs) * Ref.lastScale();
      if (!RT) {
        ReqMs.push_back(Scaled);
        Kind.push_back(Scaled);
      }
      return std::make_pair(Ms, Scaled);
    };

    double Suite = 0, Wall = 0, ScaledWall = 0;
    std::vector<std::string> Names;
    for (const PureAnalysis &A : CS.Svc->analyses())
      Names.push_back(A.Name);
    for (const Optimization &Opt : CS.Svc->optimizations())
      Names.push_back(Opt.Name);
    for (const std::string &Name : Names) {
      auto [Raw, Scaled] = CheckOne(
          *CS.Svc, Name,
          [&](const api::CheckResponse &Resp) {
            return checkSound(Resp, Name);
          },
          SoundMs);
      Wall += Raw;
      Suite += Scaled;
    }
    ScaledWall = Suite;
    for (const KnownRejection &K : Known) {
      auto [Raw, Scaled] = CheckOne(
          *CS.Buggy, K.Name,
          [&](const api::CheckResponse &Resp) {
            return checkRejected(Resp, K);
          },
          RejectMs);
      Wall += Raw;
      ScaledWall += Scaled;
    }
    if (RT) {
      TracedS.push_back(Wall / 1e3);
      ++TracedRounds;
    } else {
      RoundS.push_back(Wall / 1e3);
      ScaledRoundS.push_back(ScaledWall / 1e3);
      SuiteS.push_back(Suite / 1e3);
      TimedS += ScaledWall / 1e3;
    }
    ++Rounds;
    Last = CS.Svc;
    // A round takes about as long as a run measures, so start another one
    // only if it fits: every run then times the same number of rounds.
  } while (secondsSince(Start) + secondsSince(RoundStart) <= O.Seconds ||
           (T && TracedRounds == 0));

  if (!T) {
    reportEndToEnd(R, SetupS, median(ScaledRoundS), median(RoundS), ReqMs,
                   ReqMs.size(), TimedS, RoundS.size(), Ref);
    R.note("verdict_p50_ms", median(SoundMs), "ms");
    R.note("reject_p50_ms", median(RejectMs), "ms");
    R.note("verdict_samples", static_cast<double>(SoundMs.size()), "count");
    R.note("reject_samples", static_cast<double>(RejectMs.size()), "count");
    // Rejection obligations that waited out the proof-mode timeout, and
    // the fixed time that costs per round: no checker speed-up moves it.
    double PerRound = Timeouts / RoundS.size();
    double TimeoutS = PerRound * RejectionTimeoutMs / 1e3;
    R.note("reject_timeouts", PerRound, "count");
    R.note("reject_timeout_s", TimeoutS, "s");
    R.note("reject_timeout_share", TimeoutS / median(RoundS), "ratio");
    // The Sound half alone is ROADMAP's cold-suite path (~4.4 s there).
    R.note("suite_s", median(SuiteS), "s");
    R.note("roadmap_cold_check_s", 4.4, "s");
    return;
  }
  R.metric("checker.obligations", Obligations, "count");
  R.metric("checker.rlimit", Rlimit, "count");
  R.metric("checker.attempts_per_obligation",
           Obligations > 0 ? Attempts / Obligations : 0.0, "ratio");
  R.metric("checker.unknown", Unknown, "count");
  R.metric("checker.obligation_p50_ms", percentile(ObSeconds, 0.5) * 1e3,
           "ms");
  R.metric("checker.obligation_p95_ms", percentile(ObSeconds, 0.95) * 1e3,
           "ms");
  R.metric("checker.cex_ms", median(CexSeconds) * 1e3, "ms");
  R.metric("checker.cex_obligations", Cex, "count");
  R.metric("checker.cex_timeouts", CexTimeouts, "count");
  probeFixedCost(*Last, R, Obligations, median(RoundS));
  reportTraceWalls(R, *T, TracedS, RoundS, TracedRounds);
}

//===----------------------------------------------------------------------===//
// opt_large.
//===----------------------------------------------------------------------===//

namespace {

/// Large single-procedure programs with pointers, loops and branches
/// over 8 variables (about 125 statements each), sized so guard solving
/// dominates.
constexpr unsigned LargePrograms = 10;
constexpr unsigned LargeStmts = 25;

/// The program corpora are one fixed seeded draw from ir::generateProgram,
/// the same for every --seed: pipeline time varies between random
/// programs with a coefficient of variation near 0.5, so a fresh draw of
/// ten per seed would move wall_s by about 15% from seed to seed and hide
/// any change smaller than that. --seed orders the requests and draws the
/// oracle's interpreter inputs.
constexpr uint64_t CorpusSeed = 2003;

std::vector<ir::Program> largePrograms(uint64_t Seed) {
  ir::GenOptions G;
  G.NumVars = 8;
  G.NumStmts = LargeStmts;
  G.WithPointers = true;
  G.WithLoops = true;
  G.WithBranches = true;
  std::vector<ir::Program> Out;
  for (unsigned I = 0; I < LargePrograms; ++I)
    Out.push_back(ir::generateProgram(G, mixSeed(CorpusSeed, I)));
  std::mt19937_64 Rng(Seed);
  std::shuffle(Out.begin(), Out.end(), Rng);
  return Out;
}

/// Proves the suite on a fresh service and returns the proven pass names
/// (the set-up `cobaltc opt` pays before optimizing).
std::vector<std::string> proveSuite(api::CobaltService &Svc, Result &R) {
  api::CheckRequest Req;
  Req.Jobs = 1;
  api::CheckResponse Resp = Svc.check(Req);
  R.record(!Resp.ok()                  ? Failure("suite check not ok")
           : !Resp.Suite.allSound()    ? Failure("suite not all Sound")
           : Resp.Suite.Reports.size() != Svc.definitionCount()
               ? Failure("suite check is missing reports")
               : Failure());
  return Resp.Suite.provenPassNames();
}

} // namespace

void perfbench::runOptLarge(const Options &O, Result &R, Tracer *T) {
  std::vector<double> SetupS;
  std::shared_ptr<api::CobaltService> Svc;
  std::vector<std::string> Names;
  std::vector<ir::Program> Programs;
  SpeedRef Ref;
  for (unsigned K = 0; K < (T ? 1 : SetupRepeats); ++K) {
    Ref.sample();
    auto S0 = Clock::now();
    Svc = buildSuiteService();
    Names = proveSuite(*Svc, R);
    Programs = largePrograms(O.Seed);
    SetupS.push_back(secondsSince(S0));
  }
  if (Svc->telemetry()) {
    R.record(Failure("service built with telemetry on"));
    return;
  }

  std::vector<std::string> Printed(Programs.size());
  std::vector<int64_t> Inputs = oracleInputs(O.Seed);
  std::vector<double> RoundS, TracedS, UntracedS;
  size_t Requests = 0;
  // Each program's request times over the run.
  std::vector<std::vector<double>> ProgMs(Programs.size());
  ReplayCounts C;
  unsigned Rounds = 0;
  uint64_t ReqId = 0;
  double StmtsAfter = 0, TimedS = 0;
  auto Start = Clock::now();
  do {
    double Wall = 0, TracedWall = 0, UntracedWall = 0;
    for (size_t I = 0; I < Programs.size(); ++I) {
      api::PipelineRequest Req;
      Req.Prog = Programs[I];
      Req.PassNames = Names;
      Req.SelectedOnly = true;
      Req.Jobs = 1;
      Ref.sample();
      auto T0 = Clock::now();
      api::PipelineResponse Resp = Svc->run(std::move(Req));
      double Ms = msSince(T0);
      Wall += Ms;
      ProgMs[I].push_back(Ms);
      ++Requests;
      TimedS += Ms / 1e3;

      Failure F = checkPipeline(Resp);
      std::string Out = ir::toString(Resp.Prog);
      if (!F && Printed[I].empty()) {
        F = checkInterpAgreement(Programs[I], Resp.Prog, Inputs);
        Printed[I] = Out;
        StmtsAfter += stmtCount(Resp.Prog);
      } else if (!F && Out != Printed[I]) {
        F = "program " + std::to_string(I) + ": output differs across rounds";
      }
      if (T && !F) {
        std::string Text = ir::toString(Programs[I]);
        {
          Span S(T, "ir", "ir.parse");
          support::Expected<ir::Program> Parsed = Svc->parseProgram(Text);
          if (!Parsed || !(*Parsed == Programs[I]))
            F = "program " + std::to_string(I) + ": does not reparse";
        }
        // The same replay twice: bare (the untraced reference), then
        // with spans and probes, whose own time is left out.
        ReplayCounts Bare;
        auto T1 = Clock::now();
        replayPipeline(*Svc, Names, Programs[I], Inputs, nullptr, Bare, R, 0);
        UntracedWall += msSince(T1);
        double ProbeBefore = C.ProbeMs;
        T1 = Clock::now();
        ir::Program Replayed = replayPipeline(*Svc, Names, Programs[I], Inputs,
                                              T, C, R, ++ReqId);
        TracedWall += msSince(T1) - (C.ProbeMs - ProbeBefore);
        if (!F && ir::toString(Replayed) != Out)
          F = "program " + std::to_string(I) +
              ": replay differs from CobaltService::run";
      }
      R.record(F);
    }
    RoundS.push_back(Wall / 1e3);
    TracedS.push_back(TracedWall / 1e3);
    UntracedS.push_back(UntracedWall / 1e3);
    ++Rounds;
  } while (secondsSince(Start) < O.Seconds);

  if (!T) {
    // A program's requests repeat the same work, so its latency is the
    // median of its requests: a slow stretch of the machine then has to
    // cover half of them to move it. wall_s is one round of those, and
    // the percentiles are over the programs (a run has about 30 requests,
    // too few for a p99 of their own).
    std::vector<double> ProgMedianMs;
    double WallS = 0;
    for (const std::vector<double> &Ms : ProgMs) {
      ProgMedianMs.push_back(median(Ms));
      WallS += ProgMedianMs.back() / 1e3;
    }
    // These requests last up to 1.5 s, longer than the machine's speed
    // holds still, so the whole run is scaled by its median sample.
    double F = Ref.scale();
    reportEndToEnd(R, scaled(SetupS, F), WallS * F, WallS,
                   scaled(ProgMedianMs, F), Requests, TimedS * F, Rounds, Ref);
    double StmtsBefore = 0;
    for (const ir::Program &P : Programs)
      StmtsBefore += stmtCount(P);
    R.note("stmts_before", StmtsBefore, "count");
    R.note("stmts_after", StmtsAfter, "count");
    R.note("programs", static_cast<double>(Programs.size()), "count");
    return;
  }
  reportReplay(R, *T, C, Rounds);
  probeFixedCost(*Svc, R, 0, median(RoundS));
  reportTraceWalls(R, *T, TracedS, UntracedS, Rounds);
}

//===----------------------------------------------------------------------===//
// service_warm.
//===----------------------------------------------------------------------===//

namespace {

/// Closed-loop clients. One: its thread and the daemon's connection thread
/// take turns, so the run never asks for more cores than the host gives
/// it. With two (and unscaled times), wall_s and req_per_s spread by 0.3
/// to 0.45 over ten runs on a shared host.
constexpr unsigned Clients = 1;
/// Requests the client sends per round; a round is one wall_s sample.
constexpr unsigned RequestsPerRound = 100;
/// Small multi-procedure programs for `run` requests: main plus two
/// helpers, with calls, pointers, loops and branches (48 to 108 non-skip
/// statements, 71 on average). Smaller straight-line programs (about 38
/// statements, near the generator's floor for this shape) made the run
/// latency, and with it req_p99_ms, swing by 30% from run to run. Five
/// programs, so each is 2% of the mix and req_p99_ms falls inside the
/// slowest one's latencies.
constexpr unsigned RunPrograms = 5;

std::vector<std::string> runProgramTexts() {
  ir::GenOptions G;
  G.NumVars = 3;
  G.NumStmts = 4;
  G.NumHelperProcs = 2;
  G.WithCalls = true;
  G.WithPointers = true;
  std::vector<std::string> Out;
  for (unsigned I = 0; I < RunPrograms; ++I)
    Out.push_back(
        ir::toString(ir::generateProgram(G, mixSeed(CorpusSeed, 100 + I))));
  return Out;
}

/// One prepared request: its frame and the response it got while priming
/// (empty for stats, whose counters move; those need only be ok).
struct WarmRequest {
  std::string Payload;
  const std::string *Primed = nullptr;
};

/// The daemon plus everything the priming pass recorded.
struct WarmService {
  std::shared_ptr<api::CobaltService> Svc;
  std::unique_ptr<service::Daemon> D;
  std::vector<std::string> Names;
  std::vector<std::string> CheckReqs, CheckResps; ///< Per definition.
  std::string FullReq, FullResp;
  std::vector<std::string> ValidateReqs, ValidateResps;
  std::vector<std::string> RunTexts, RunReqs, RunResps;
  std::string PingReq, PingResp, StatsReq;
};

Failure statusOk(const std::string &Resp) {
  std::optional<service::JsonValue> Doc = service::parseJson(Resp);
  const service::JsonValue *St = Doc ? Doc->find("status") : nullptr;
  if (!St || St->asString() != "ok")
    return "response status not ok: " + Resp.substr(0, 120);
  return std::nullopt;
}

/// Starts a daemon on a fresh stdlib service, whose verdicts persist under
/// \p CacheDir when it is set (it must then be empty), and primes it: one
/// cold full-suite check, every single-definition check, one proof of
/// each validation pair, each run program, a ping. Verifies every priming
/// response against its known answer.
WarmService startWarm(uint64_t Seed, const std::string &Socket,
                      const std::string &CacheDir, Result &R) {
  WarmService W;
  W.Svc = buildSuiteService(CacheDir);
  if (W.Svc->telemetry())
    R.record(Failure("service built with telemetry on"));
  W.D = std::make_unique<service::Daemon>(W.Svc, Socket);
  if (support::Error E = W.D->start(); E.failed()) {
    std::fprintf(stderr, "perfbench: daemon: %s\n", E.str().c_str());
    std::exit(1);
  }
  service::Client C;
  if (C.connect(Socket).failed()) {
    std::fprintf(stderr, "perfbench: cannot connect to the daemon\n");
    std::exit(1);
  }
  auto Ask = [&](const std::string &Req) {
    support::Expected<std::string> Resp = C.request(Req, 120000);
    return Resp ? *Resp : std::string();
  };

  W.FullReq = service::makeCheckRequest({});
  W.FullResp = Ask(W.FullReq);
  Failure F = statusOk(W.FullResp);
  if (!F && W.FullResp.find("\"exit\": 0") == std::string::npos)
    F = "cold full-suite check did not prove every definition";
  R.record(F);

  for (const PureAnalysis &A : W.Svc->analyses())
    W.Names.push_back(A.Name);
  for (const Optimization &Opt : W.Svc->optimizations())
    W.Names.push_back(Opt.Name);
  for (const std::string &N : W.Names) {
    W.CheckReqs.push_back(service::makeCheckRequest({N}));
    W.CheckResps.push_back(Ask(W.CheckReqs.back()));
    F = statusOk(W.CheckResps.back());
    if (!F && W.CheckResps.back().find("\"verdict\": \"sound\"") ==
                  std::string::npos)
      F = "priming check of " + N + " not sound";
    R.record(F);
  }

  for (const ValidationPair &P : validationPairs()) {
    W.ValidateReqs.push_back(
        service::makeValidateRequest(P.Original, P.Candidate));
    W.ValidateResps.push_back(Ask(W.ValidateReqs.back()));
    F = statusOk(W.ValidateResps.back());
    std::string Want =
        std::string("\"verdict\": \"") + validate::verdictName(P.Expected);
    if (!F && W.ValidateResps.back().find(Want) == std::string::npos)
      F = std::string("validation of ") + P.Name + ": verdict not " +
          validate::verdictName(P.Expected);
    R.record(F);
  }

  W.RunTexts = runProgramTexts();
  for (const std::string &Text : W.RunTexts) {
    W.RunReqs.push_back(service::makeRunRequest(Text, {}, false));
    W.RunResps.push_back(Ask(W.RunReqs.back()));
    F = statusOk(W.RunResps.back());
    std::optional<service::JsonValue> Doc =
        service::parseJson(W.RunResps.back());
    if (!F) {
      const service::JsonValue *Il = Doc->find("optimized_il");
      const service::JsonValue *Deg = Doc->find("degraded");
      support::Expected<ir::Program> Orig = W.Svc->parseProgram(Text);
      support::Expected<ir::Program> Opt =
          W.Svc->parseProgram(Il ? Il->asString() : "");
      if (!Deg || Deg->asBool(true))
        F = "run request degraded";
      else if (!Orig || !Opt)
        F = "run request: program does not parse";
      else
        F = checkInterpAgreement(*Orig, *Opt, oracleInputs(Seed));
    }
    R.record(F);
  }
  W.PingReq = service::makePingRequest();
  W.PingResp = Ask(W.PingReq);
  R.record(statusOk(W.PingResp));
  W.StatsReq = service::makeStatsRequest();
  return W;
}

/// The fixed mix, in blocks of 20 shuffled by the seed: 12 single-
/// definition checks (60%), 3 full-suite checks (15%), 2 validations
/// (10%), 2 runs (10%), and one ping or stats (5%). Definitions, pairs
/// and programs are taken in turn from a seeded offset, so every round
/// does the same work in a different order.
std::vector<WarmRequest> warmMix(const WarmService &W, uint64_t Seed,
                                 unsigned Count) {
  std::mt19937_64 Rng(Seed);
  std::vector<WarmRequest> Out;
  unsigned Block = 0;
  size_t NextCheck = Rng(), NextValidate = Rng(), NextRun = Rng();
  while (Out.size() < Count) {
    std::vector<WarmRequest> B;
    for (unsigned I = 0; I < 12; ++I) {
      size_t K = NextCheck++ % W.CheckReqs.size();
      B.push_back({W.CheckReqs[K], &W.CheckResps[K]});
    }
    for (unsigned I = 0; I < 3; ++I)
      B.push_back({W.FullReq, &W.FullResp});
    for (unsigned I = 0; I < 2; ++I) {
      size_t K = NextValidate++ % W.ValidateReqs.size();
      B.push_back({W.ValidateReqs[K], &W.ValidateResps[K]});
    }
    for (unsigned I = 0; I < 2; ++I) {
      size_t K = NextRun++ % W.RunReqs.size();
      B.push_back({W.RunReqs[K], &W.RunResps[K]});
    }
    if (Block++ % 2 == 0)
      B.push_back({W.PingReq, &W.PingResp});
    else
      B.push_back({W.StatsReq, nullptr});
    std::shuffle(B.begin(), B.end(), Rng);
    for (WarmRequest &Q : B)
      if (Out.size() < Count)
        Out.push_back(std::move(Q));
  }
  return Out;
}

/// Sends \p Mix over \p C in order (a closed loop: the next request goes
/// out when the previous response is in).
void sendMix(service::Client &C, const std::vector<WarmRequest> &Mix,
             std::vector<double> &LatMs, Result &R, Tracer *T,
             uint64_t &ReqId, uint64_t *Bytes) {
  for (const WarmRequest &Q : Mix) {
    Span S(T, "service", "service.request", ++ReqId);
    auto T0 = Clock::now();
    support::Expected<std::string> Resp = C.request(Q.Payload, 60000);
    LatMs.push_back(msSince(T0));
    if (!Resp) {
      R.record("transport: " + Resp.error().str());
      continue;
    }
    if (Bytes && Q.Primed)
      *Bytes += Resp->size();
    R.record(Q.Primed ? checkWarmResponse(*Resp, *Q.Primed)
                      : statusOk(*Resp));
  }
}

/// What probeVerdictCache measured over a run.
struct CacheProbe {
  std::vector<double> MemUs, DiskUs;
  double MemHits = 0, DiskHits = 0;
};

/// Suite checks served by the verdict cache alone, with no dedup memo in
/// front: a fresh SoundnessChecker over the warm service's two-tier store
/// (its hot tier answers), and a fresh service over the same cache
/// directory (its disk tier answers, as for a restarted daemon). Times
/// both under `support` spans and checks every verdict is Sound.
void probeVerdictCache(const WarmService &W, const std::string &CacheDir,
                       Tracer &T, CacheProbe &P, Result &R) {
  auto Judge = [&](const std::vector<checker::CheckReport> &Reports,
                   const char *Tier) {
    bool Ok = Reports.size() == W.Svc->definitionCount();
    for (const checker::CheckReport &Rep : Reports)
      Ok = Ok && Rep.V == checker::CheckReport::Verdict::V_Sound;
    R.record(Ok ? Failure()
                : Failure(std::string(Tier) + " tier: suite not all Sound"));
  };
  const std::shared_ptr<support::PersistentCache> &Store =
      W.Svc->verdictCache();
  unsigned Before = Store->memHits();
  {
    checker::SoundnessChecker C(W.Svc->registry(), W.Svc->analyses());
    C.setPolicy(W.Svc->config().Prover);
    C.setSharedCache(Store);
    Span S(&T, "support", "support.cache_mem");
    auto T0 = Clock::now();
    std::vector<checker::CheckReport> Reports =
        C.checkSuite(W.Svc->analyses(), W.Svc->optimizations());
    P.MemUs.push_back(msSince(T0) * 1e3);
    Judge(Reports, "mem");
  }
  P.MemHits += Store->memHits() - Before;

  std::shared_ptr<api::CobaltService> Restarted = buildSuiteService(CacheDir);
  api::CheckRequest Req;
  Req.Jobs = 1;
  Span S(&T, "support", "support.cache_disk");
  auto T0 = Clock::now();
  api::CheckResponse Resp = Restarted->check(Req);
  P.DiskUs.push_back(msSince(T0) * 1e3);
  Judge(Resp.Suite.Reports, "disk");
  P.DiskHits += Restarted->verdictCache()->diskHits();
}

} // namespace

void perfbench::runServiceWarm(const Options &O, Result &R, Tracer *T) {
  // The socket and the verdict cache live in the working directory: the
  // benchmark writes only there. Only the traced run keeps a cache
  // directory, for its cache probe: the disk tier fsyncs every stored
  // verdict, and the disk's latency moved the untraced set-up time by
  // 25% between sets of runs.
  std::string Base = ".perfbench-" + std::to_string(getpid());
  std::string Socket = Base + ".sock", CacheDir = T ? Base + ".cache" : "";
  // The client and the daemon's threads (created below, so they inherit
  // this) share one CPU. With one closed-loop client only one of them
  // runs at a time, and a round trip is two context switches on that CPU
  // instead of cross-CPU wake-ups, whose latency depends on how deeply
  // the host let an idle vCPU sleep: unpinned, a memo hit's round trip
  // (req_p50_ms) moved by 35% between stretches of the machine.
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(static_cast<unsigned>(std::max(0, sched_getcpu())), &One);
  if (sched_setaffinity(0, sizeof(One), &One) != 0)
    std::fprintf(stderr, "perfbench: cannot pin to one CPU; running unpinned\n");
  std::vector<double> SetupS;
  WarmService W;
  SpeedRef Ref;
  for (unsigned K = 0; K < (T ? 1 : SetupRepeats); ++K) {
    if (W.D)
      W.D->stop();
    if (T)
      std::filesystem::remove_all(CacheDir);
    Ref.sample();
    auto S0 = Clock::now();
    W = startWarm(O.Seed, Socket, CacheDir, R);
    SetupS.push_back(secondsSince(S0));
  }

  std::vector<double> RoundS, ReqMs, TracedS;
  unsigned Rounds = 0;
  uint64_t ReqId = 0;
  double TimedS = 0;
  auto Start = Clock::now();

  service::Client Cl;
  if (Cl.connect(Socket).failed()) {
    R.record(Failure("cannot connect to the daemon"));
    return;
  }

  if (!T) {
    // One connection, rounds of RequestsPerRound until the time is up; a
    // round's time is one wall_s sample. A round takes about half a
    // second, so it and its requests are scaled by the SpeedRef sample
    // just before it; the set-ups, by the run's median sample.
    std::vector<double> ScaledRoundS;
    do {
      std::vector<WarmRequest> Mix =
          warmMix(W, mixSeed(O.Seed, 1000 * Rounds), RequestsPerRound);
      Ref.sample();
      size_t First = ReqMs.size();
      auto T0 = Clock::now();
      sendMix(Cl, Mix, ReqMs, R, nullptr, ReqId, nullptr);
      RoundS.push_back(secondsSince(T0));
      ScaledRoundS.push_back(RoundS.back() * Ref.lastScale());
      for (size_t K = First; K < ReqMs.size(); ++K)
        ReqMs[K] *= Ref.lastScale();
      TimedS += ScaledRoundS.back();
      ++Rounds;
    } while (secondsSince(Start) < O.Seconds);
    W.D->stop();
    reportEndToEnd(R, scaled(SetupS, Ref.scale()), median(ScaledRoundS),
                   median(RoundS), ReqMs, ReqMs.size(), TimedS, Rounds, Ref);
    R.note("clients", Clients, "count");
    double RunStmts = 0;
    for (const std::string &Text : W.RunTexts)
      RunStmts += stmtCount(*W.Svc->parseProgram(Text));
    R.note("run_program_stmts_mean", RunStmts / W.RunTexts.size(), "count");
    return;
  }

  // Traced: one client's mix untraced (the reference) then traced, and
  // the in-process api probes, per round.
  std::vector<double> CheckUs, FullUs, ValidateUs, RunMs, PingUs, ParseUs;
  double Requested = 0, Served = 0, DedupServed = 0, Bytes = 0;
  ReplayCounts C;
  CacheProbe Cache;
  std::vector<int64_t> Inputs = oracleInputs(O.Seed);
  const std::vector<std::string> &Names = W.Names;
  do {
    std::vector<WarmRequest> Mix =
        warmMix(W, mixSeed(O.Seed, 1000 * Rounds), RequestsPerRound);
    std::vector<double> Lat;
    unsigned HitsBefore = W.Svc->cacheHits();
    auto T0 = Clock::now();
    sendMix(Cl, Mix, Lat, R, nullptr, ReqId, nullptr);
    RoundS.push_back(secondsSince(T0));
    DedupServed += W.Svc->cacheHits() - HitsBefore;
    uint64_t RoundBytes = 0;
    Lat.clear();
    T0 = Clock::now();
    sendMix(Cl, Mix, Lat, R, T, ReqId, &RoundBytes);
    TracedS.push_back(secondsSince(T0));
    // Later rounds send other mixes; the first one's bytes repeat exactly.
    if (Rounds == 0)
      Bytes = static_cast<double>(RoundBytes);

    // In-process: what the api layer costs per request kind.
    HitsBefore = W.Svc->cacheHits();
    for (const std::string &N : Names) {
      api::CheckRequest Req;
      Req.Only = {N};
      Span S(T, "api", "api.check", ++ReqId);
      auto T1 = Clock::now();
      api::CheckResponse Resp = W.Svc->check(Req);
      CheckUs.push_back(msSince(T1) * 1e3);
      R.record(checkSound(Resp, N));
      Requested += 1;
    }
    for (unsigned I = 0; I < 3; ++I) {
      Span S(T, "api", "api.full_check", ++ReqId);
      auto T1 = Clock::now();
      api::CheckResponse Resp = W.Svc->check(api::CheckRequest{});
      FullUs.push_back(msSince(T1) * 1e3);
      R.record(Resp.ok() && Resp.Suite.allSound()
                   ? Failure()
                   : Failure("warm full-suite check not all Sound"));
      Requested += static_cast<double>(Names.size());
    }
    Served += W.Svc->cacheHits() - HitsBefore;
    for (const ValidationPair &P : validationPairs()) {
      api::ValidateRequest Req;
      Req.Original = *W.Svc->parseProgram(P.Original);
      Req.Candidate = *W.Svc->parseProgram(P.Candidate);
      Span S(T, "api", "api.validate", ++ReqId);
      auto T1 = Clock::now();
      api::ValidateResponse Resp = W.Svc->validate(std::move(Req));
      ValidateUs.push_back(msSince(T1) * 1e3);
      R.record(checkValidation(Resp.Report, P.Expected));
    }
    for (const std::string &Text : W.RunTexts) {
      uint64_t Id = ++ReqId;
      support::Expected<ir::Program> Prog = [&] {
        Span S(T, "ir", "ir.parse", Id);
        return W.Svc->parseProgram(Text);
      }();
      if (!Prog) {
        R.record(Failure("run program does not parse"));
        continue;
      }
      api::PipelineRequest Req;
      Req.Prog = *Prog;
      auto T1 = Clock::now();
      api::PipelineResponse Resp = [&] {
        Span S(T, "api", "api.run", Id);
        return W.Svc->run(std::move(Req));
      }();
      RunMs.push_back(msSince(T1));
      Failure F = checkPipeline(Resp);
      ir::Program Replayed =
          replayPipeline(*W.Svc, Names, *Prog, Inputs, T, C, R, Id);
      if (!F && ir::toString(Replayed) != ir::toString(Resp.Prog))
        F = "replay differs from CobaltService::run";
      R.record(F);
    }

    probeVerdictCache(W, CacheDir, *T, Cache, R);

    for (unsigned I = 0; I < 20; ++I) {
      auto T1 = Clock::now();
      support::Expected<std::string> Resp = Cl.request(W.PingReq, 60000);
      PingUs.push_back(msSince(T1) * 1e3);
      R.record(Resp ? checkWarmResponse(*Resp, W.PingResp)
                    : Failure("ping: transport failure"));
    }
    for (unsigned I = 0; I < 10; ++I) {
      auto T1 = Clock::now();
      std::optional<service::JsonValue> Doc = service::parseJson(W.FullResp);
      ParseUs.push_back(msSince(T1) * 1e3);
      R.record(Doc ? Failure() : Failure("full-suite response unparseable"));
    }
    ++Rounds;
  } while (secondsSince(Start) < O.Seconds);

  R.metric("api.check_hit_us", median(CheckUs), "us");
  R.metric("api.full_check_hit_us", median(FullUs), "us");
  R.metric("api.validate_hit_us", median(ValidateUs), "us");
  R.metric("api.run_ms", median(RunMs), "ms");
  R.metric("api.hit_rate", Requested > 0 ? Served / Requested : 0.0, "ratio");
  R.metric("api.dedup_served", DedupServed / Rounds, "count");
  R.metric("service.ping_us", median(PingUs), "us");
  R.metric("service.response_bytes", Bytes, "bytes");
  R.metric("service.json_parse_us", median(ParseUs), "us");
  R.metric("support.cache_mem_hits", Cache.MemHits / Rounds, "count");
  R.metric("support.cache_disk_hits", Cache.DiskHits / Rounds, "count");
  R.metric("support.mem_suite_us", median(Cache.MemUs), "us");
  R.metric("support.disk_suite_us", median(Cache.DiskUs), "us");
  reportReplay(R, *T, C, Rounds);
  probeFixedCost(*W.Svc, R, 0, median(RoundS));
  reportTraceWalls(R, *T, TracedS, RoundS, Rounds);
  W.D->stop();
  std::filesystem::remove_all(CacheDir);
}
