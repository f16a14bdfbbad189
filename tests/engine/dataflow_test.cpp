//===- dataflow_test.cpp - The substitution-set dataflow solver -----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Dataflow.h"

#include "core/Builder.h"
#include "engine/Engine.h"
#include "ir/Generator.h"
#include "ir/Parser.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

class DataflowTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }

  GuardSolution solve(const char *Text, const Guard &Gd, Direction Dir) {
    Prog = parseProgramOrDie(Text);
    G.emplace(Prog.Procs.back());
    return solveGuard(Dir, Gd, *G, Registry, nullptr);
  }

  Substitution subst(std::initializer_list<std::pair<const char *, Binding>>
                         Bindings) {
    Substitution Theta;
    for (const auto &[Name, B] : Bindings)
      Theta.bind(Name, B);
    return Theta;
  }

  LabelRegistry Registry;
  Program Prog;
  std::optional<Cfg> G;
};

/// The paper's §5.2 worked example: after S1: a := 2 and S2: b := 3 the
/// facts are [Y -> a, C -> 2] and [Y -> b, C -> 3].
TEST_F(DataflowTest, Section52ConstPropFacts) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      a := 2;
      b := 3;
      c := a;
      return c;
    }
  )",
                            Gd, Direction::D_Forward);

  // Before `b := 3` (node 4): exactly [Y->a, C->2].
  Substitution YA = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(2)}});
  Substitution YB = subst({{"Y", Binding::var("b")},
                           {"C", Binding::constant(3)}});
  EXPECT_EQ(Sol.AtNode[4].size(), 1u);
  EXPECT_TRUE(Sol.AtNode[4].count(YA));

  // Before `c := a` (node 5): both facts.
  EXPECT_EQ(Sol.AtNode[5].size(), 2u);
  EXPECT_TRUE(Sol.AtNode[5].count(YA));
  EXPECT_TRUE(Sol.AtNode[5].count(YB));

  // The entry node has no facts (no path has an earlier enabler).
  EXPECT_TRUE(Sol.AtNode[0].empty());
}

TEST_F(DataflowTest, FactsKilledByRedefinition) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      a := 2;
      a := x;
      x := a;
      return x;
    }
  )",
                            Gd, Direction::D_Forward);
  // After a := x (node 2) kills [Y->a,C->2]; node 3 sees nothing.
  EXPECT_TRUE(Sol.AtNode[3].empty());
}

TEST_F(DataflowTest, MergeIntersectsBranches) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      if x goto t else f;
    t:
      a := 1;
      if 1 goto join else join;
    f:
      a := 1;
      b := 2;
    join:
      return a;
    }
  )",
                            Gd, Direction::D_Forward);
  // At the join (node 7): a := 1 holds on both legs; b := 2 only on one.
  Substitution A1 = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(1)}});
  Substitution B2 = subst({{"Y", Binding::var("b")},
                           {"C", Binding::constant(2)}});
  EXPECT_TRUE(Sol.AtNode[7].count(A1));
  EXPECT_FALSE(Sol.AtNode[7].count(B2));
}

TEST_F(DataflowTest, LoopKillsFactsThatCrossBackEdge) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(n) {
      decl i;
      decl a;
      decl g;
      a := 7;
      i := 0;
    head:
      g := i < n;
      if g goto body else done;
    body:
      i := i + 1;
      if 1 goto head else head;
    done:
      return a;
    }
  )",
                            Gd, Direction::D_Forward);
  // [Y->a, C->7] survives the loop (a never redefined): it must hold at
  // the return (node 9) even though the loop's back edge merges in.
  Substitution A7 = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(7)}});
  EXPECT_TRUE(Sol.AtNode[9].count(A7));
  // [Y->i, C->0] must NOT survive into the loop body (i := i + 1 kills
  // it around the back edge).
  Substitution I0 = subst({{"Y", Binding::var("i")},
                           {"C", Binding::constant(0)}});
  EXPECT_FALSE(Sol.AtNode[7].count(I0));
  // But it does reach the loop head test on the first pass... the back
  // edge destroys it at the merge:
  EXPECT_FALSE(Sol.AtNode[5].count(I0));
}

TEST_F(DataflowTest, BackwardGuardFlowsFromExits) {
  // DAE-style guard: enabled by a later redefinition or return.
  Guard Gd{fAnd(fOr(fOr(stmtIs("X := ..."), stmtIs("X := new")),
                    stmtIs("return ...")),
                fNot(labelF("mayUse", {tExpr("X")}))),
           fNot(labelF("mayUse", {tExpr("X")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      a := 5;
      b := a;
      b := 7;
      return b;
    }
  )",
                            Gd, Direction::D_Backward);
  // At node 2 (`a := 5`): `a` is dead (b := a uses it... so NOT dead).
  Substitution XA = subst({{"X", Binding::var("a")}});
  EXPECT_FALSE(Sol.AtNode[2].count(XA));
  // At node 3 (`b := a`): b is redefined at node 4 without use: dead.
  Substitution XB = subst({{"X", Binding::var("b")}});
  EXPECT_TRUE(Sol.AtNode[3].count(XB));
  // Return nodes have no backward facts.
  EXPECT_TRUE(Sol.AtNode[5].empty());
}

TEST_F(DataflowTest, TrivialBackwardGuardHoldsAtNonExits) {
  Guard Gd{fTrue(), fFalse()};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      skip;
      x := x;
      return x;
    }
  )",
                            Gd, Direction::D_Backward);
  EXPECT_EQ(Sol.AtNode[0].size(), 1u); // the empty substitution
  EXPECT_EQ(Sol.AtNode[1].size(), 1u);
  EXPECT_TRUE(Sol.AtNode[2].empty()); // the return
}

TEST_F(DataflowTest, UnreachableNodesGetNoFacts) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      a := 2;
      if 1 goto end else end;
      x := a;
    end:
      return x;
    }
  )",
                            Gd, Direction::D_Forward);
  EXPECT_TRUE(Sol.AtNode[3].empty()); // unreachable x := a
}

/// Seeding keeps exactly the unseeded facts that agree with a seed: here
/// [Y -> a, C -> 2] but not [Y -> b, C -> 3], and the empty fact from
/// the `skip` disjunct, which never binds Y.
TEST_F(DataflowTest, SeededSolveKeepsFactsThatAgreeWithASeed) {
  Guard Gd{fOr(stmtIs("Y := C"), stmtIs("skip")), fTrue()};
  GuardSolution Unseeded = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      skip;
      a := 2;
      b := 3;
      x := a;
      return x;
    }
  )",
                                 Gd, Direction::D_Forward);
  GuardSolution Seeded =
      solveGuard(Direction::D_Forward, Gd, *G, Registry, nullptr,
                 {subst({{"Y", Binding::var("a")}})});
  ASSERT_EQ(Seeded.AtNode.size(), Unseeded.AtNode.size());
  for (size_t I = 0; I < Unseeded.AtNode.size(); ++I) {
    std::set<Substitution> Agreeing;
    for (const Substitution &Theta : Unseeded.AtNode[I])
      if (!Theta.isBound("Y") || Theta.lookup("Y")->asVar() == "a")
        Agreeing.insert(Theta);
    EXPECT_EQ(Seeded.AtNode[I], Agreeing) << "node " << I;
  }
  EXPECT_TRUE(Seeded.AtNode[5].count(Substitution()));
  EXPECT_EQ(Unseeded.AtNode[5].size(), 3u);
  EXPECT_EQ(Seeded.AtNode[5].size(), 2u);
}

/// The solve-shape counters of one guard solve, read from a telemetry
/// session of its own, plus Σ|AtNode|.
struct SolveShape {
  uint64_t Iters, MeetDropped, Psi2Dropped, Facts;
};

SolveShape solveShape(Direction Dir, const Guard &Gd, const Cfg &G,
                      const LabelRegistry &Registry) {
  support::Telemetry T;
  support::TelemetryScope Scope(&T);
  GuardSolution Sol = solveGuard(Dir, Gd, G, Registry, nullptr);
  SolveShape Shape{T.Metrics.counter("dataflow.fixpoint_iters"),
                   T.Metrics.counter("dataflow.meet_dropped"),
                   T.Metrics.counter("dataflow.psi2_dropped"), 0};
  for (const std::set<Substitution> &At : Sol.AtNode)
    Shape.Facts += At.size();
  EXPECT_EQ(Shape.Iters, Sol.Iterations);
  return Shape;
}

/// Pins how the fixpoint unfolds on a fixed generated body with pointers,
/// loops and branches, in both directions: the sweep count, the facts the
/// ∩ meet and the ψ2 filter drop, and the facts at the matching points.
/// Any change to the solver's representation must leave all of them
/// exactly as they are.
TEST_F(DataflowTest, SolveShapeCountersArePinned) {
  GenOptions Options;
  Options.NumStmts = 25;
  Options.WithPointers = true;
  Prog = generateProgram(Options, /*Seed=*/12);
  const Procedure &Main = *Prog.findProc("main");
  ASSERT_EQ(Main.size(), 106);
  G.emplace(Main);

  SolveShape Fwd = solveShape(Direction::D_Forward, opts::constProp().Pat.G,
                              *G, Registry);
  EXPECT_EQ(Fwd.Iters, 318u); // three sweeps
  EXPECT_EQ(Fwd.MeetDropped, 9u);
  EXPECT_EQ(Fwd.Psi2Dropped, 12u);
  EXPECT_EQ(Fwd.Facts, 11u);

  SolveShape Bwd = solveShape(Direction::D_Backward,
                              opts::deadAssignElim().Pat.G, *G, Registry);
  EXPECT_EQ(Bwd.Iters, 212u); // two sweeps
  EXPECT_EQ(Bwd.MeetDropped, 88u);
  EXPECT_EQ(Bwd.Psi2Dropped, 62u);
  EXPECT_EQ(Bwd.Facts, 317u);
}

/// The universe and matching-point counters of one computeDelta (seeded
/// by its sites) and of the unseeded solve, each read from a telemetry
/// session of its own.
struct SeedShape {
  uint64_t Universe, AtNode, Unmatched;
};

SeedShape seedShape(const Optimization &O, const Procedure &P,
                    const LabelRegistry &Registry, bool Seeded) {
  support::Telemetry T;
  support::TelemetryScope Scope(&T);
  if (Seeded) {
    computeDelta(O.Pat, P, Registry, nullptr);
  } else {
    Cfg G(P);
    solveGuard(O.Pat.Dir, O.Pat.G, G, Registry, nullptr);
  }
  return {T.Metrics.counter("dataflow.universe"),
          static_cast<uint64_t>(
              T.Metrics.histogram("dataflow.subst_set_size").Sum),
          T.Metrics.counter("engine.passes_unmatched")};
}

/// Pins what seeding GEN with the sites of s saves on the same body:
/// Σ|U| (dataflow.universe), Σ|AtNode| (Σ dataflow.subst_set_size) and
/// engine.passes_unmatched, seeded by computeDelta and unseeded.
TEST_F(DataflowTest, SiteSeededCountersArePinned) {
  GenOptions Options;
  Options.NumStmts = 25;
  Options.WithPointers = true;
  Prog = generateProgram(Options, /*Seed=*/12);
  const Procedure &Main = *Prog.findProc("main");
  ASSERT_EQ(Main.size(), 106);

  struct Pin {
    Optimization O;
    SeedShape Seeded, Unseeded;
  };
  // const_fold_add has no site here, so no solve runs; const_prop's
  // seeds keep one of its seven facts; every assignment is a site of
  // cse and dead_assign_elim, so seeding keeps all of theirs.
  for (const Pin &Expect : {
           Pin{opts::constFoldAdd(), {0, 0, 1}, {324, 34020, 0}},
           Pin{opts::constProp(), {1, 9, 0}, {7, 11, 0}},
           Pin{opts::cse(), {46, 236, 0}, {46, 236, 0}},
           Pin{opts::deadAssignElim(), {15, 317, 0}, {15, 317, 0}},
       }) {
    SeedShape S = seedShape(Expect.O, Main, Registry, /*Seeded=*/true);
    SeedShape U = seedShape(Expect.O, Main, Registry, /*Seeded=*/false);
    EXPECT_EQ(S.Universe, Expect.Seeded.Universe) << Expect.O.Name;
    EXPECT_EQ(S.AtNode, Expect.Seeded.AtNode) << Expect.O.Name;
    EXPECT_EQ(S.Unmatched, Expect.Seeded.Unmatched) << Expect.O.Name;
    EXPECT_EQ(U.Universe, Expect.Unseeded.Universe) << Expect.O.Name;
    EXPECT_EQ(U.AtNode, Expect.Unseeded.AtNode) << Expect.O.Name;
    EXPECT_EQ(U.Unmatched, Expect.Unseeded.Unmatched) << Expect.O.Name;
  }
}

TEST_F(DataflowTest, FixpointIterationCountReported) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve("proc main(x) { decl a; a := 1; return a; }",
                            Gd, Direction::D_Forward);
  EXPECT_GE(Sol.Iterations, 3u);
}

} // namespace
