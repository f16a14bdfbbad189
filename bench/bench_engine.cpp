//===- bench_engine.cpp - Experiment E6: engine scaling -------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E6: cost of the generic substitution-set dataflow engine
/// (§5.2, and the §7 remark that more efficient execution strategies are
/// future work). Google-benchmark series:
///
///  * guard solving vs procedure size, forward (const prop) and backward
///    (DAE) patterns;
///  * guard solving vs pattern-variable universe (number of variables);
///  * a full optimization run (solve + match + rewrite);
///  * pure-analysis labelling.
///
/// `bench_engine --gate` switches to the CI gate: the engine's RPO +
/// ψ2-memoized solver is checked fact-for-fact against a deliberately
/// naive FIFO-worklist reference built only on the public core/Formula.h
/// evaluation API, then timed against it. Referee cases also check that
/// the site-seeded computeDelta equals the Δ the unseeded reference
/// derives through the public matchStmt. The gate fails (exit 1) on any
/// AtNode or Δ divergence, if the measured speedup drops below the floor
/// recorded in EXPERIMENTS.md, or if a millisecond-sized case does not
/// visit fewer nodes than the reference. Emits BENCH_engine.json in the
/// CWD.
///
//===----------------------------------------------------------------------===//

#include "core/Formula.h"
#include "core/Match.h"
#include "engine/Dataflow.h"
#include "engine/Engine.h"
#include "ir/Generator.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

LabelRegistry &registry() {
  static LabelRegistry Registry = [] {
    LabelRegistry R;
    for (const LabelDef &Def : opts::standardLabels())
      R.define(Def);
    R.declareAnalysisLabel("notTainted");
    return R;
  }();
  return Registry;
}

Program makeProgram(unsigned Stmts, unsigned Vars = 5,
                    bool Pointers = false) {
  GenOptions Options;
  Options.NumStmts = Stmts;
  Options.NumVars = Vars;
  Options.WithPointers = Pointers;
  return generateProgram(Options, /*Seed=*/42);
}

void BM_GuardSolveForward(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)));
  const Procedure &Main = *Prog.findProc("main");
  Cfg G(Main);
  Optimization O = opts::constProp();
  for (auto _ : State) {
    GuardSolution Sol = solveGuard(Direction::D_Forward, O.Pat.G, G,
                                   registry(), nullptr);
    benchmark::DoNotOptimize(Sol.AtNode.size());
  }
  State.counters["stmts"] = Main.size();
}
BENCHMARK(BM_GuardSolveForward)->Arg(25)->Arg(100)->Arg(400)->Arg(1600);

void BM_GuardSolveBackward(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)));
  const Procedure &Main = *Prog.findProc("main");
  Cfg G(Main);
  Optimization O = opts::deadAssignElim();
  for (auto _ : State) {
    GuardSolution Sol = solveGuard(Direction::D_Backward, O.Pat.G, G,
                                   registry(), nullptr);
    benchmark::DoNotOptimize(Sol.AtNode.size());
  }
  State.counters["stmts"] = Main.size();
}
BENCHMARK(BM_GuardSolveBackward)->Arg(25)->Arg(100)->Arg(400);

void BM_GuardSolveVsUniverse(benchmark::State &State) {
  // Fixed statement count, growing variable universe: substitution sets
  // and the negative-literal enumeration grow with it.
  Program Prog = makeProgram(120, static_cast<unsigned>(State.range(0)));
  const Procedure &Main = *Prog.findProc("main");
  Cfg G(Main);
  Optimization O = opts::deadAssignElim(); // ψ1 enumerates variables
  for (auto _ : State) {
    GuardSolution Sol = solveGuard(Direction::D_Backward, O.Pat.G, G,
                                   registry(), nullptr);
    benchmark::DoNotOptimize(Sol.AtNode.size());
  }
}
BENCHMARK(BM_GuardSolveVsUniverse)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_RunOptimization(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)));
  Optimization O = opts::constProp();
  for (auto _ : State) {
    State.PauseTiming();
    Program Copy = Prog;
    State.ResumeTiming();
    RunStats Stats =
        runOptimization(O, *Copy.findProc("main"), registry(), nullptr);
    benchmark::DoNotOptimize(Stats.AppliedCount);
  }
}
BENCHMARK(BM_RunOptimization)->Arg(25)->Arg(100)->Arg(400);

void BM_ComputeDeltaOnly(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)));
  const Procedure &Main = *Prog.findProc("main");
  Optimization O = opts::cse();
  for (auto _ : State) {
    auto Delta = computeDelta(O.Pat, Main, registry(), nullptr);
    benchmark::DoNotOptimize(Delta.size());
  }
}
BENCHMARK(BM_ComputeDeltaOnly)->Arg(25)->Arg(100)->Arg(400);

void BM_TaintAnalysis(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)),
                             /*Vars=*/5, /*Pointers=*/true);
  const Procedure &Main = *Prog.findProc("main");
  PureAnalysis A = opts::taintAnalysis();
  for (auto _ : State) {
    Labeling Labels;
    runPureAnalysis(A, Main, registry(), Labels);
    benchmark::DoNotOptimize(Labels.size());
  }
}
BENCHMARK(BM_TaintAnalysis)->Arg(25)->Arg(100)->Arg(400);

//===----------------------------------------------------------------------===//
// Gate mode: naive FIFO reference solver vs the engine.
//===----------------------------------------------------------------------===//

/// Textbook chaotic-iteration solver for [[ψ1 followed by ψ2]], written
/// against the public formula-evaluation API only (buildUniverse /
/// satisfyFormula / evalFormula). It computes the same greatest fixed
/// point as engine::solveGuard — OUT starts at the fact universe, IN is
/// the ∩ over flow-predecessors, roots pin IN = ∅ — but with none of the
/// engine's strategy: a FIFO worklist instead of reverse post-order
/// sweeps, and a fresh ψ2 evaluation per (node, θ) visit instead of the
/// projection memo. Agreement is the correctness gate; the time ratio is
/// the performance gate.
struct ReferenceSolution {
  std::vector<std::set<Substitution>> AtNode;
  uint64_t Visits = 0;
};

ReferenceSolution referenceSolveGuard(Direction Dir, const Guard &Gd,
                                      const Cfg &G,
                                      const LabelRegistry &Registry) {
  const Procedure &P = G.proc();
  const int N = G.size();
  auto flowPreds = [&](int I) -> const std::vector<int> & {
    return Dir == Direction::D_Forward ? G.preds(I) : G.succs(I);
  };
  auto flowSuccs = [&](int I) -> const std::vector<int> & {
    return Dir == Direction::D_Forward ? G.succs(I) : G.preds(I);
  };
  auto isRoot = [&](int I) {
    return Dir == Direction::D_Forward ? I == G.entry() : G.isExit(I);
  };

  // Nodes reachable from a root along the flow direction; everything
  // else has no constraining path and keeps an empty fact set.
  std::vector<bool> Live(N, false);
  {
    std::vector<int> Work;
    for (int I = 0; I < N; ++I)
      if (isRoot(I)) {
        Live[I] = true;
        Work.push_back(I);
      }
    while (!Work.empty()) {
      int I = Work.back();
      Work.pop_back();
      for (int T : flowSuccs(I))
        if (!Live[T]) {
          Live[T] = true;
          Work.push_back(T);
        }
    }
  }

  Universe Univ = buildUniverse(P);
  auto makeCtx = [&](int I) {
    return NodeContext{&P, I, &Registry, nullptr, &Univ};
  };

  std::vector<std::set<Substitution>> Gen(N);
  std::set<Substitution> U;
  for (int I = 0; I < N; ++I) {
    if (!Live[I])
      continue;
    for (Substitution &S : satisfyFormula(*Gd.Psi1, makeCtx(I), {})) {
      U.insert(S);
      Gen[I].insert(std::move(S));
    }
  }

  ReferenceSolution Sol;
  Sol.AtNode.assign(N, {});
  std::vector<std::set<Substitution>> Out(N);
  std::deque<int> Work;
  std::vector<bool> Queued(N, false);
  for (int I = 0; I < N; ++I)
    if (Live[I]) {
      Out[I] = U; // optimistic start for the ∩ meet
      Work.push_back(I);
      Queued[I] = true;
    }

  while (!Work.empty()) {
    int I = Work.front();
    Work.pop_front();
    Queued[I] = false;
    ++Sol.Visits;

    std::set<Substitution> In;
    if (!isRoot(I)) {
      bool First = true;
      for (int Pd : flowPreds(I)) {
        if (!Live[Pd])
          continue;
        if (First) {
          In = Out[Pd];
          First = false;
        } else {
          std::set<Substitution> Tmp;
          std::set_intersection(In.begin(), In.end(), Out[Pd].begin(),
                                Out[Pd].end(),
                                std::inserter(Tmp, Tmp.begin()));
          In = std::move(Tmp);
        }
      }
    }
    Sol.AtNode[I] = In;

    std::set<Substitution> NewOut = Gen[I];
    for (const Substitution &Theta : In) {
      auto R = evalFormula(*Gd.Psi2, makeCtx(I), Theta);
      if (R.has_value() && *R)
        NewOut.insert(Theta);
    }
    if (NewOut != Out[I]) {
      Out[I] = std::move(NewOut);
      for (int S : flowSuccs(I))
        if (Live[S] && !Queued[S]) {
          Work.push_back(S);
          Queued[S] = true;
        }
    }
  }
  return Sol;
}

/// Δ = [[O_pat]](p) from the reference's unseeded AtNode: every fact at
/// every node, extended by a match of s through the public matchStmt.
std::vector<MatchSite> referenceDelta(const Optimization &O,
                                      const Procedure &P) {
  Cfg G(P);
  ReferenceSolution Ref =
      referenceSolveGuard(O.Pat.Dir, O.Pat.G, G, registry());
  std::vector<MatchSite> Delta;
  for (int I = 0; I < P.size(); ++I) {
    std::set<Substitution> Seen;
    for (const Substitution &Theta : Ref.AtNode[I]) {
      Substitution Extended = Theta;
      if (matchStmt(O.Pat.From, P.stmtAt(I), Extended) &&
          Seen.insert(Extended).second)
        Delta.push_back({I, std::move(Extended)});
    }
  }
  return Delta;
}

/// A correctness-only case: site-seeded computeDelta against the
/// reference Δ. Seeding makes the engine side far cheaper than the
/// unseeded reference, so these cases stay out of the speed geomean.
struct DeltaCase {
  const char *Name;
  Optimization O;
  unsigned Stmts;
  bool Pointers;
  size_t Sites = 0;    ///< |Δ|.
  double Seconds = 0;  ///< Both sides, reference included.
  bool Match = false;
};

struct GateCase {
  const char *Name;
  Direction Dir;
  unsigned Stmts;
  double EngineSeconds = 0;
  double ReferenceSeconds = 0;
  double Speedup = 0;
  uint64_t Facts = 0;
  unsigned Iterations = 0; ///< Engine node visits (RPO sweeps × nodes).
  uint64_t Visits = 0;     ///< Reference worklist visits.
  bool Match = false;
};

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

int runGate(bool Quick) {
  // Floors intentionally below the measured speedups (see EXPERIMENTS.md,
  // experiment E6-gate) so only a real regression — e.g. losing the RPO
  // schedule, the ψ2 memo, or the interned bitset facts — trips them, not
  // machine-to-machine noise. The geomean carries the headline; the min
  // floor just demands the engine never lose to the naive reference
  // outright. The 25-statement cases finish in milliseconds on both
  // sides, so their ratio is load noise: they are gated on the
  // deterministic visit counts instead (engine RPO visits below the
  // reference's FIFO visits).
  constexpr double GeomeanFloor = 10.0;
  constexpr double MinFloor = 1.0;
  constexpr unsigned CountGatedStmts = 25;

  std::vector<GateCase> Cases = {
      {"constProp/forward/25", Direction::D_Forward, 25},
      {"constProp/forward/100", Direction::D_Forward, 100},
      {"constProp/forward/400", Direction::D_Forward, 400},
      {"deadAssignElim/backward/25", Direction::D_Backward, 25},
      {"deadAssignElim/backward/100", Direction::D_Backward, 100},
  };
  if (Quick)
    Cases.resize(2);

  std::printf("engine gate: solveGuard vs naive FIFO reference "
              "(geomean floor %.1fx, min floor %.1fx above %u statements; "
              "iterations < visits at %u)\n\n",
              GeomeanFloor, MinFloor, CountGatedStmts, CountGatedStmts);

  bool AllMatch = true, CountsOk = true;
  double MinSpeedup = -1;
  double LogSum = 0;
  for (GateCase &C : Cases) {
    Program Prog = makeProgram(C.Stmts);
    const Procedure &Main = *Prog.findProc("main");
    Cfg G(Main);
    Optimization O = C.Dir == Direction::D_Forward
                         ? opts::constProp()
                         : opts::deadAssignElim();

    // Warm once (page in code + allocator), then time: min of 3 engine
    // runs vs one reference run (the reference is the slow side; its
    // run-to-run noise only makes the gate easier to pass).
    GuardSolution Eng =
        solveGuard(C.Dir, O.Pat.G, G, registry(), nullptr);
    C.EngineSeconds = 1e9;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      Eng = solveGuard(C.Dir, O.Pat.G, G, registry(), nullptr);
      C.EngineSeconds = std::min(C.EngineSeconds, secondsSince(T0));
    }
    auto T1 = std::chrono::steady_clock::now();
    ReferenceSolution Ref =
        referenceSolveGuard(C.Dir, O.Pat.G, G, registry());
    C.ReferenceSeconds = secondsSince(T1);

    C.Match = Eng.AtNode == Ref.AtNode;
    C.Iterations = Eng.Iterations;
    C.Visits = Ref.Visits;
    for (const std::set<Substitution> &Facts : Eng.AtNode)
      C.Facts += Facts.size();
    C.Speedup = C.EngineSeconds > 0
                    ? C.ReferenceSeconds / C.EngineSeconds
                    : 0;
    AllMatch = AllMatch && C.Match;
    if (C.Stmts == CountGatedStmts)
      CountsOk = CountsOk && C.Iterations < C.Visits;
    else if (MinSpeedup < 0 || C.Speedup < MinSpeedup)
      MinSpeedup = C.Speedup;
    LogSum += std::log(std::max(C.Speedup, 1e-9));
    std::printf("  %-28s engine %8.4f s  reference %8.4f s  "
                "speedup %6.1fx  facts %6llu  iters %5u  visits %6llu  %s\n",
                C.Name, C.EngineSeconds, C.ReferenceSeconds, C.Speedup,
                static_cast<unsigned long long>(C.Facts), C.Iterations,
                static_cast<unsigned long long>(C.Visits),
                C.Match ? "match" : "MISMATCH");
  }

  // Δ referee: a fixed program per rule, each with at least one site (an
  // empty Δ on both sides would referee nothing).
  std::vector<DeltaCase> DeltaCases = {
      {"constFoldAdd/delta/50", opts::constFoldAdd(), 50, false},
      {"cse/delta/50", opts::cse(), 50, false},
      {"deadAssignElim/delta/pointers/50", opts::deadAssignElim(), 50,
       true},
  };
  bool DeltasMatch = true;
  double DeltaSeconds = 0;
  for (DeltaCase &D : DeltaCases) {
    auto T0 = std::chrono::steady_clock::now();
    Program Prog = makeProgram(D.Stmts, /*Vars=*/5, D.Pointers);
    const Procedure &Main = *Prog.findProc("main");
    std::vector<MatchSite> Delta =
        computeDelta(D.O.Pat, Main, registry(), nullptr);
    D.Match = !Delta.empty() && Delta == referenceDelta(D.O, Main);
    D.Sites = Delta.size();
    D.Seconds = secondsSince(T0);
    DeltaSeconds += D.Seconds;
    DeltasMatch = DeltasMatch && D.Match;
    std::printf("  %-34s sites %4zu  %8.4f s  %s\n", D.Name, D.Sites,
                D.Seconds, D.Match ? "match" : "MISMATCH");
  }

  double Geomean = std::exp(LogSum / Cases.size());
  bool GateSpeed = Geomean >= GeomeanFloor && MinSpeedup >= MinFloor;
  bool Pass = AllMatch && DeltasMatch && GateSpeed && CountsOk;
  std::printf("\n  gates: all AtNode sets %s; all Delta %s; speedup geomean "
              "%.1fx (floor %.1fx), min %.1fx (floor %.1fx) %s; "
              "iterations < visits at %u statements %s\n",
              AllMatch ? "match PASS" : "diverge FAIL",
              DeltasMatch ? "match PASS" : "diverge FAIL", Geomean,
              GeomeanFloor, MinSpeedup, MinFloor,
              GateSpeed ? "PASS" : "FAIL", CountGatedStmts,
              CountsOk ? "PASS" : "FAIL");

  std::string J = "{\n  \"benchmark\": \"engine\",\n  \"cases\": [\n";
  char Buf[512];
  for (size_t I = 0; I < Cases.size(); ++I) {
    const GateCase &C = Cases[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"name\": \"%s\", \"stmts\": %u, "
                  "\"engine_seconds\": %.6f, \"reference_seconds\": %.6f, "
                  "\"speedup\": %.2f, \"facts\": %llu, "
                  "\"iterations\": %u, \"visits\": %llu, \"match\": %s}%s\n",
                  C.Name, C.Stmts, C.EngineSeconds, C.ReferenceSeconds,
                  C.Speedup, static_cast<unsigned long long>(C.Facts),
                  C.Iterations, static_cast<unsigned long long>(C.Visits),
                  C.Match ? "true" : "false",
                  I + 1 < Cases.size() ? "," : "");
    J += Buf;
  }
  J += "  ],\n  \"delta_cases\": [\n";
  for (size_t I = 0; I < DeltaCases.size(); ++I) {
    const DeltaCase &D = DeltaCases[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"name\": \"%s\", \"stmts\": %u, \"sites\": %zu, "
                  "\"seconds\": %.6f, \"match\": %s}%s\n",
                  D.Name, D.Stmts, D.Sites, D.Seconds,
                  D.Match ? "true" : "false",
                  I + 1 < DeltaCases.size() ? "," : "");
    J += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "  ],\n  \"gates\": {\"all_match\": %s, "
                "\"delta_match\": %s, \"delta_seconds\": %.3f, "
                "\"speedup_geomean\": %.2f, \"geomean_floor\": %.1f, "
                "\"min_speedup\": %.2f, \"min_floor\": %.1f, "
                "\"iterations_below_visits\": %s},\n"
                "  \"pass\": %s\n}\n",
                AllMatch ? "true" : "false", DeltasMatch ? "true" : "false",
                DeltaSeconds, Geomean, GeomeanFloor, MinSpeedup, MinFloor,
                CountsOk ? "true" : "false", Pass ? "true" : "false");
  J += Buf;

  if (std::FILE *F = std::fopen("BENCH_engine.json", "wb")) {
    std::fwrite(J.data(), 1, J.size(), F);
    std::fclose(F);
  }
  std::printf("\n%s", J.c_str());
  if (!Pass) {
    std::fprintf(stderr, "bench_engine: GATE FAILURE\n");
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Gate = false, Quick = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--gate") == 0)
      Gate = true;
    else if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
  }
  if (Gate)
    return runGate(Quick);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
