//===- passmanager_test.cpp - Pipelines and composition rules -------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/PassManager.h"

#include "ir/Generator.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Optimizations.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

TEST(PassManagerTest, AnalysisFeedsForwardOptimization) {
  PassManager PM;
  PM.addAnalysis(opts::taintAnalysis());
  PM.addOptimization(opts::constPropPrecise());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      decl p;
      decl c;
      a := 2;
      p := &b;
      *p := x;
      c := a;
      return c;
    }
  )");
  auto Reports = PM.run(Prog);
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_EQ(Reports[0].PassName, "taint_analysis");
  EXPECT_GT(Reports[0].DeltaSize, 0u);
  EXPECT_EQ(Reports[1].AppliedCount, 1u);
  EXPECT_NE(toString(Prog).find("c := 2"), std::string::npos);
}

TEST(PassManagerTest, PrePipelineEliminatesPartialRedundancy) {
  // The paper's §2.3 pipeline: duplicate, then CSE, then self-assignment
  // removal turns the partially redundant x := a + b into a fully
  // redundant one and removes it.
  PassManager PM;
  PM.addOptimization(opts::preDuplicate());
  PM.addOptimization(opts::cse());
  PM.addOptimization(opts::selfAssignRemoval());

  const char *Text = R"(
    proc main(n) {
      decl a;
      decl b;
      decl x;
      b := n;
      if n goto t else f;
    t:
      a := 1;
      x := a + b;
      if 1 goto join else join;
    f:
      skip;
    join:
      x := a + b;
      return x;
    }
  )";
  Program Prog = parseProgramOrDie(Text);
  auto Reports = PM.run(Prog);

  std::string Out = toString(Prog);
  // The else-leg skip became the computation; the join recomputation
  // reduced to x := x and then to skip.
  EXPECT_NE(Out.find("8: x := a + b"), std::string::npos) << Out;
  EXPECT_NE(Out.find("9: skip"), std::string::npos) << Out;

  // Semantics preserved on a few inputs.
  Program Original = parseProgramOrDie(Text);
  for (int64_t In : {0, 1, 5}) {
    Interpreter IO(Original), IT(Prog);
    RunResult RO = IO.run(In), RT = IT.run(In);
    ASSERT_TRUE(RO.returned());
    ASSERT_TRUE(RT.returned());
    EXPECT_EQ(RO.Result, RT.Result) << "input " << In << "\n" << Out;
  }
  (void)Reports;
}

TEST(PassManagerTest, FullPipelineRunsAllPassesAndPreservesSemantics) {
  PassManager PM;
  for (PureAnalysis &A : opts::allAnalyses())
    PM.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));

  const char *Text = R"(
    proc helper(v) { decl r; r := v * 2; return r; }
    proc main(x) {
      decl a;
      decl b;
      decl c;
      decl d;
      decl g;
      a := 2 + 3;
      b := a;
      c := b + 1;
      d := b + 1;
      d := d;
      g := 0;
      if g goto t else f;
    t:
      c := helper(c);
    f:
      return c;
    }
  )";
  Program Prog = parseProgramOrDie(Text);
  auto Reports = PM.run(Prog);
  EXPECT_FALSE(Reports.empty());
  EXPECT_EQ(validateProgram(Prog), std::nullopt) << toString(Prog);

  Program Original = parseProgramOrDie(Text);
  for (int64_t In : {-7, 0, 3, 100}) {
    Interpreter IO(Original), IT(Prog);
    RunResult RO = IO.run(In), RT = IT.run(In);
    ASSERT_TRUE(RO.returned()) << RO.str();
    ASSERT_TRUE(RT.returned()) << RT.str();
    EXPECT_EQ(RO.Result, RT.Result)
        << "input " << In << "\n"
        << toString(Prog);
  }
}

TEST(PassManagerTest, RunToFixpointCascades) {
  // const_prop enables branch folding enables branch_taken; a fixpoint
  // of the pipeline applies the whole cascade.
  PassManager PM;
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::branchFold());
  PM.addOptimization(opts::branchTaken());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      a := 1;
      b := a;
      if b goto t else f;
    t:
      x := 10;
    f:
      return x;
    }
  )");
  unsigned Rounds = PM.runToFixpoint(Prog);
  EXPECT_GE(Rounds, 1u);
  std::string Out = toString(Prog);
  EXPECT_NE(Out.find("if 1 goto 5 else 5"), std::string::npos) << Out;

  // Idempotent afterwards.
  Program Again = Prog;
  EXPECT_EQ(PM.runToFixpoint(Again), 0u);
  EXPECT_EQ(Prog, Again);
}

TEST(PassManagerTest, RunOneSelectsByName) {
  PassManager PM;
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::deadAssignElim());

  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      a := 2;
      x := a;
      return x;
    }
  )");
  auto Reports = PM.runOne("const_prop", Prog);
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].PassName, "const_prop");
  EXPECT_NE(toString(Prog).find("x := 2"), std::string::npos);
}

TEST(PassManagerTest, SharedLabelsAcrossPassesRegisterOnce) {
  PassManager PM;
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::copyProp()); // shares mayDef/syntacticDef
  unsigned MayDefCount = 0;
  for (const LabelDef &Def : PM.registry().predicates())
    if (Def.Name == "mayDef")
      ++MayDefCount;
  EXPECT_EQ(MayDefCount, 1u);
}

//===----------------------------------------------------------------------===//
// When labels are replayed.
//===----------------------------------------------------------------------===//

/// One report as the tests compare it: every field a run determines
/// (remark notes are fixed per kind).
std::string summarize(const std::string &Proc, const std::string &Pass,
                      const RunStats &Stats) {
  std::string Out = Proc + "/" + Pass +
                    " delta=" + std::to_string(Stats.DeltaSize) +
                    " applied=" + std::to_string(Stats.AppliedCount) +
                    " iters=" + std::to_string(Stats.FixpointIters);
  for (int Site : Stats.AppliedSites)
    Out += " passed@" + std::to_string(Site);
  for (int Site : Stats.MissedSites)
    Out += " missed@" + std::to_string(Site);
  return Out;
}

std::string summarize(const PassReport &R) {
  std::string Out = R.ProcName + "/" + R.PassName +
                    " delta=" + std::to_string(R.DeltaSize) +
                    " applied=" + std::to_string(R.AppliedCount) +
                    " iters=" + std::to_string(R.FixpointIters);
  for (const support::Remark &M : R.Remarks)
    Out += std::string(" ") + M.kindName() + "@" + std::to_string(M.Node);
  return Out;
}

/// The referee: the replay rule §4.1 states, spelled with the public
/// engine calls. After a rewrite, *every* later pass first replays every
/// analysis before it, whether or not it reads labels; a backward
/// optimization runs with no labeling. \p PM's analyses must all be
/// registered before its optimizations (its pipeline order is then
/// analyses(), optimizations()). Returns one summary per (procedure,
/// pass) in PassManager::run's order and counts replays in \p Replays.
std::vector<std::string> runReplayingEagerly(const PassManager &PM,
                                             Program &Prog,
                                             unsigned &Replays) {
  const std::vector<PureAnalysis> &As = PM.analyses();
  const std::vector<Optimization> &Os = PM.optimizations();
  std::vector<std::string> Out;
  for (Procedure &P : Prog.Procs) {
    Labeling Labels(P.size());
    bool Stale = false;
    for (size_t K = 0; K < As.size() + Os.size(); ++K) {
      if (Stale) {
        ++Replays;
        Labels.assign(P.size(), {});
        for (size_t J = 0; J < std::min(K, As.size()); ++J)
          runPureAnalysis(As[J], P, PM.registry(), Labels);
        Stale = false;
      }
      RunStats Stats;
      if (K < As.size()) {
        runPureAnalysis(As[K], P, PM.registry(), Labels, &Stats);
        Out.push_back(summarize(P.Name, As[K].Name, Stats));
        continue;
      }
      const Optimization &O = Os[K - As.size()];
      Stats = runOptimization(
          O, P, PM.registry(),
          O.Pat.Dir == Direction::D_Forward ? &Labels : nullptr);
      Stale = Stats.AppliedCount > 0;
      Out.push_back(summarize(P.Name, O.Name, Stats));
    }
  }
  return Out;
}

PassManager fullSuite() {
  PassManager PM;
  for (PureAnalysis &A : opts::allAnalyses())
    PM.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));
  return PM;
}

TEST(PassManagerTest, ReplayingOnlyBeforeReadersMatchesEagerReplay) {
  // Skipping the replays before passes that read no label must not move
  // a single rewrite, count or remark: the full suite over generated
  // programs with pointers, loops, branches and helper calls, with no
  // pool and on four lanes, against the referee above.
  PassManager PM = fullSuite();
  GenOptions Options{.NumVars = 6,
                     .NumStmts = 24,
                     .NumHelperProcs = 2,
                     .WithPointers = true,
                     .WithCalls = true,
                     .BaitPressure = 30};
  support::ThreadPool Pool(4);
  unsigned EagerReplays = 0;
  uint64_t LazyReplays = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    const Program Input = generateProgram(Options, Seed);
    Program Eager = Input;
    std::vector<std::string> Want =
        runReplayingEagerly(PM, Eager, EagerReplays);
    for (support::ThreadPool *Lanes : {(support::ThreadPool *)nullptr,
                                       &Pool}) {
      Program Lazy = Input;
      support::Telemetry Telem;
      std::vector<PassReport> Reports;
      {
        support::TelemetryScope Scope(&Telem);
        Reports = PM.run(Lazy, Lanes);
      }
      ASSERT_EQ(Reports.size(), Want.size()) << "seed " << Seed;
      for (size_t I = 0; I < Want.size(); ++I) {
        ASSERT_FALSE(Reports[I].failed()) << Reports[I].Err.str();
        ASSERT_EQ(summarize(Reports[I]), Want[I]) << "seed " << Seed;
      }
      EXPECT_EQ(toString(Lazy), toString(Eager)) << "seed " << Seed;
      if (!Lanes)
        LazyReplays += Telem.Metrics.counter("engine.label_replays");
    }
  }
  // The corpus exercises the difference: most eager replays are skipped.
  EXPECT_LT(LazyReplays * 2, EagerReplays);
}

TEST(PassManagerTest, OptLargeCorpusReplaysLabelsTenTimesNotFifty) {
  // perfbench's opt_large corpus (perfbench/workloads.cpp, largePrograms:
  // ten 125-statement programs drawn from seed 2003) through the full
  // suite, one round. The eager rule replayed 50 times; 40 of those
  // preceded passes that read no label.
  auto MixSeed = [](uint64_t Seed, uint64_t Stream) {
    uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Stream + 0x632be59bd9b4e019ull;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  };
  PassManager PM = fullSuite();
  GenOptions Options{.NumVars = 8, .NumStmts = 25, .WithPointers = true};
  unsigned EagerReplays = 0, Applied = 0;
  support::Telemetry Telem;
  for (uint64_t I = 0; I < 10; ++I) {
    Program Lazy = generateProgram(Options, MixSeed(2003, I));
    Program Eager = Lazy;
    runReplayingEagerly(PM, Eager, EagerReplays);
    support::TelemetryScope Scope(&Telem);
    for (const PassReport &R : PM.run(Lazy))
      Applied += R.AppliedCount;
    EXPECT_EQ(toString(Lazy), toString(Eager)) << "program " << I;
  }
  EXPECT_EQ(Applied, 240u);
  EXPECT_EQ(EagerReplays, 50u);
  EXPECT_EQ(Telem.Metrics.counter("engine.label_replays"), 10u);
}

/// Runs \p PM over \p Prog with \p Telem installed; returns the reports
/// and leaves the run's trace and counters in \p Telem.
std::vector<PassReport> runTraced(const PassManager &PM, Program &Prog,
                                  support::Telemetry &Telem) {
  support::TelemetryScope Scope(&Telem);
  return PM.run(Prog);
}

/// The names of the passes whose spans enclose a labels.replay span, one
/// per replay, in trace order.
std::vector<std::string> passesEnclosingReplays(support::Telemetry &Telem) {
  std::vector<support::TraceEvent> Events = Telem.Trace.snapshot();
  std::vector<std::string> Out;
  for (const support::TraceEvent &Replay : Events) {
    if (std::string(Replay.Name) != "labels.replay")
      continue;
    std::string Encloser = "<none>";
    for (const support::TraceEvent &Pass : Events)
      if (std::string(Pass.Name) == "pass" &&
          Pass.StartUs <= Replay.StartUs &&
          Replay.StartUs + Replay.DurUs <= Pass.StartUs + Pass.DurUs)
        Encloser = Pass.Args.at(0).second;
    Out.push_back(Encloser);
  }
  return Out;
}

TEST(PassManagerTest, LabelsReplayOnlyInsideReadersSpans) {
  // const_prop, copy_prop and dead_assign_elim each rewrite; none reads
  // a label, so the stale labels wait for const_prop_precise (which
  // reads notTainted through mayDefPrecise), and its own rewrite makes
  // load_cse (notTainted through derefUnchanged) replay once more. The
  // eager rule replayed before each of the four passes after a rewrite.
  PassManager PM;
  PM.addAnalysis(opts::taintAnalysis());
  PM.addOptimization(opts::constProp());
  PM.addOptimization(opts::copyProp());
  PM.addOptimization(opts::deadAssignElim());
  PM.addOptimization(opts::constPropPrecise());
  PM.addOptimization(opts::loadCse());
  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      decl d;
      decl e;
      decl f;
      decl p;
      decl g;
      decl q;
      decl h;
      a := 3;
      b := a;
      c := x;
      d := c;
      d := b;
      e := 5;
      p := &f;
      *p := x;
      g := e;
      q := *p;
      h := *p;
      h := h + g;
      h := h + q;
      h := h + d;
      return h;
    }
  )");
  support::Telemetry Telem;
  std::vector<PassReport> Reports = runTraced(PM, Prog, Telem);
  ASSERT_EQ(Reports.size(), 6u);
  for (size_t I = 1; I < 6; ++I)
    EXPECT_GT(Reports[I].AppliedCount, 0u) << Reports[I].PassName;

  EXPECT_EQ(Telem.Metrics.counter("engine.label_replays"), 2u);
  EXPECT_EQ(passesEnclosingReplays(Telem),
            (std::vector<std::string>{"const_prop_precise", "load_cse"}));
  std::string Out = toString(Prog);
  EXPECT_NE(Out.find("g := 5"), std::string::npos) << Out;
  EXPECT_NE(Out.find("h := q"), std::string::npos) << Out;
}

TEST(PassManagerTest, ReaderSeesLabelsOfTheRewrittenBody) {
  // pre_duplicate turns the skip into p := &a, so a is tainted from there
  // on. const_prop_precise reads notTainted only through mayDefPrecise:
  // replayed labels let it carry c's constant across the store *q := x
  // (c is untainted), which no labeling at all would forbid. load_cse
  // must then see a tainted at a := 5 and keep f := *q: the labels of
  // the body before pre_duplicate had a untainted there, and would
  // rewrite f := *q to f := e.
  PassManager PM;
  PM.addAnalysis(opts::taintAnalysis());
  PM.addOptimization(opts::preDuplicate());
  PM.addOptimization(opts::constPropPrecise());
  PM.addOptimization(opts::loadCse());
  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl c;
      decl d;
      decl q;
      decl p;
      decl e;
      decl f;
      decl g;
      c := 2;
      q := &d;
      *q := x;
      e := *q;
      skip;
      a := 5;
      p := &a;
      f := *q;
      g := c;
      g := g + e;
      g := g + f;
      return g;
    }
  )");
  support::Telemetry Telem;
  std::vector<PassReport> Reports = runTraced(PM, Prog, Telem);
  ASSERT_EQ(Reports.size(), 4u);
  EXPECT_EQ(Reports[1].AppliedCount, 1u);
  EXPECT_EQ(Reports[2].AppliedCount, 1u);
  EXPECT_EQ(Reports[3].AppliedCount, 0u);
  std::string Out = toString(Prog);
  EXPECT_NE(Out.find("12: p := &a"), std::string::npos) << Out;
  EXPECT_NE(Out.find("g := 2"), std::string::npos) << Out;
  EXPECT_NE(Out.find("f := *q"), std::string::npos) << Out;

  EXPECT_EQ(Telem.Metrics.counter("engine.label_replays"), 2u);
  EXPECT_EQ(passesEnclosingReplays(Telem),
            (std::vector<std::string>{"const_prop_precise", "load_cse"}));
}

} // namespace
