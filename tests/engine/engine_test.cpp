//===- engine_test.cpp - End-to-end optimization execution ----------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "core/Builder.h"
#include "core/Match.h"
#include "ir/Generator.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

class EngineTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }

  /// Runs one optimization over main; returns the transformed text.
  std::string optimize(const Optimization &O, const char *Text,
                       RunStats *Stats = nullptr,
                       const Labeling *Labels = nullptr) {
    Program Prog = parseProgramOrDie(Text);
    Procedure &Main = *Prog.findProc("main");
    RunStats S = runOptimization(O, Main, Registry, Labels);
    if (Stats)
      *Stats = S;
    EXPECT_EQ(validateProgram(Prog), std::nullopt) << toString(Prog);
    return toString(Main);
  }

  LabelRegistry Registry;
};

TEST_F(EngineTest, ConstPropSection52Example) {
  RunStats Stats;
  std::string Out = optimize(opts::constProp(), R"(
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
                             &Stats);
  EXPECT_NE(Out.find("c := 2"), std::string::npos) << Out;
  EXPECT_EQ(Stats.AppliedCount, 1u);
}

TEST_F(EngineTest, ConstPropStopsAtRedefinition) {
  std::string Out = optimize(opts::constProp(), R"(
    proc main(x) {
      decl a;
      decl c;
      a := 2;
      a := x;
      c := a;
      return c;
    }
  )");
  EXPECT_EQ(Out.find("c := 2"), std::string::npos) << Out;
}

TEST_F(EngineTest, ConstPropConservativeAroundPointerStores) {
  // *p := x may define a (p could point to a): the fact must die.
  std::string Out = optimize(opts::constProp(), R"(
    proc main(x) {
      decl a;
      decl p;
      decl c;
      a := 2;
      p := &a;
      *p := x;
      c := a;
      return c;
    }
  )");
  EXPECT_EQ(Out.find("c := 2"), std::string::npos) << Out;
}

TEST_F(EngineTest, ConstPropPreciseUsesTaintLabels) {
  const char *Text = R"(
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
  )";
  // Conservative: the pointer store kills the fact.
  std::string Conservative = optimize(opts::constProp(), Text);
  EXPECT_EQ(Conservative.find("c := 2"), std::string::npos) << Conservative;

  // Precise: run the taint analysis first; only b is tainted, so a's
  // fact survives the store.
  Program Prog = parseProgramOrDie(Text);
  Procedure &Main = *Prog.findProc("main");
  Labeling Labels;
  runPureAnalysis(opts::taintAnalysis(), Main, Registry, Labels);
  RunStats Stats =
      runOptimization(opts::constPropPrecise(), Main, Registry, &Labels);
  EXPECT_GE(Stats.AppliedCount, 1u);
  EXPECT_NE(toString(Main).find("c := 2"), std::string::npos)
      << toString(Main);
}

TEST_F(EngineTest, ConstPropFoldPropagatesFoldedValue) {
  std::string Out = optimize(opts::constPropFold(), R"(
    proc main(x) {
      decl a;
      decl c;
      a := 2 + 3;
      c := a;
      return c;
    }
  )");
  EXPECT_NE(Out.find("c := 5"), std::string::npos) << Out;
}

TEST_F(EngineTest, ConstFoldAddRewritesInPlace) {
  std::string Out = optimize(opts::constFoldAdd(), R"(
    proc main(x) {
      decl a;
      a := 2 + 3;
      return a;
    }
  )");
  EXPECT_NE(Out.find("a := 5"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("2 + 3"), std::string::npos) << Out;
}

TEST_F(EngineTest, AlgebraicSimplifications) {
  std::string Out = optimize(opts::simplifyAddZero(), R"(
    proc main(x) {
      decl a;
      a := x + 0;
      return a;
    }
  )");
  EXPECT_NE(Out.find("a := x;"), std::string::npos) << Out;

  Out = optimize(opts::simplifyMulZero(), R"(
    proc main(x) {
      decl a;
      a := x * 0;
      return a;
    }
  )");
  EXPECT_NE(Out.find("a := 0;"), std::string::npos) << Out;

  Out = optimize(opts::simplifySubSelf(), R"(
    proc main(x) {
      decl a;
      a := x - x;
      return a;
    }
  )");
  EXPECT_NE(Out.find("a := 0;"), std::string::npos) << Out;

  // But x - y with distinct variables is untouched.
  Out = optimize(opts::simplifySubSelf(), R"(
    proc main(x) {
      decl a;
      decl y;
      a := x - y;
      return a;
    }
  )");
  EXPECT_NE(Out.find("a := x - y;"), std::string::npos) << Out;
}

TEST_F(EngineTest, CopyPropRewritesUse) {
  std::string Out = optimize(opts::copyProp(), R"(
    proc main(x) {
      decl a;
      decl c;
      a := x;
      c := a;
      return c;
    }
  )");
  EXPECT_NE(Out.find("c := x"), std::string::npos) << Out;
}

TEST_F(EngineTest, CseEliminatesRecomputation) {
  std::string Out = optimize(opts::cse(), R"(
    proc main(x) {
      decl a;
      decl b;
      decl t;
      a := x + 1;
      b := x + 1;
      return b;
    }
  )");
  EXPECT_NE(Out.find("b := a"), std::string::npos) << Out;
}

TEST_F(EngineTest, CseBlockedWhenOperandChanges) {
  std::string Out = optimize(opts::cse(), R"(
    proc main(x) {
      decl a;
      decl b;
      a := x + 1;
      x := 0;
      b := x + 1;
      return b;
    }
  )");
  EXPECT_EQ(Out.find("b := a"), std::string::npos) << Out;
}

TEST_F(EngineTest, StoreForwardReplacesLoad) {
  // store_forward needs notTainted(P) (a self-pointing P breaks it), so
  // the taint analysis must run first.
  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl p;
      decl b;
      p := &a;
      *p := x;
      b := *p;
      return b;
    }
  )");
  Procedure &Main = *Prog.findProc("main");
  Labeling Labels;
  runPureAnalysis(opts::taintAnalysis(), Main, Registry, Labels);
  RunStats Stats =
      runOptimization(opts::storeForward(), Main, Registry, &Labels);
  EXPECT_EQ(Stats.AppliedCount, 1u);
  EXPECT_NE(toString(Main).find("b := x"), std::string::npos)
      << toString(Main);
}

TEST_F(EngineTest, LoadCseRequiresTaintInfo) {
  const char *Text = R"(
    proc main(x) {
      decl a;
      decl b;
      decl t;
      decl p;
      p := &t;
      a := *p;
      b := *p;
      return b;
    }
  )";
  // Without taint labels the intervening statements can't be proven
  // innocuous... here there are none between the two loads, so even the
  // conservative run rewrites. Put a disturbance in between:
  const char *TextWithAssign = R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      decl t;
      decl p;
      p := &t;
      a := *p;
      c := 1;
      b := *p;
      return b;
    }
  )";
  // derefUnchanged(P) at `c := 1` needs notTainted(c): without labels it
  // fails, with labels it succeeds (c's address is never taken).
  Program P1 = parseProgramOrDie(TextWithAssign);
  RunStats S1 = runOptimization(opts::loadCse(), *P1.findProc("main"),
                                Registry, nullptr);
  EXPECT_EQ(S1.AppliedCount, 0u);

  Program P2 = parseProgramOrDie(TextWithAssign);
  Procedure &Main2 = *P2.findProc("main");
  Labeling Labels;
  runPureAnalysis(opts::taintAnalysis(), Main2, Registry, Labels);
  RunStats S2 = runOptimization(opts::loadCse(), Main2, Registry, &Labels);
  EXPECT_EQ(S2.AppliedCount, 1u);
  EXPECT_NE(toString(Main2).find("b := a"), std::string::npos)
      << toString(Main2);
  (void)Text;
}

TEST_F(EngineTest, BranchFoldThenTaken) {
  const char *Text = R"(
    proc main(x) {
      decl a;
      a := 1;
      if a goto t else f;
    t:
      x := 10;
    f:
      return x;
    }
  )";
  Program Prog = parseProgramOrDie(Text);
  Procedure &Main = *Prog.findProc("main");
  runOptimization(opts::branchFold(), Main, Registry, nullptr);
  EXPECT_NE(toString(Main).find("if 1 goto"), std::string::npos)
      << toString(Main);
  runOptimization(opts::branchTaken(), Main, Registry, nullptr);
  EXPECT_NE(toString(Main).find("if 1 goto 3 else 3"), std::string::npos)
      << toString(Main);
}

TEST_F(EngineTest, BranchNotTakenFoldsToElseTarget) {
  const char *Text = R"(
    proc main(x) {
      decl a;
      a := 0;
      if a goto t else f;
    t:
      x := 10;
    f:
      return x;
    }
  )";
  Program Prog = parseProgramOrDie(Text);
  Procedure &Main = *Prog.findProc("main");
  runOptimization(opts::branchFold(), Main, Registry, nullptr);
  runOptimization(opts::branchNotTaken(), Main, Registry, nullptr);
  EXPECT_NE(toString(Main).find("if 1 goto 4 else 4"), std::string::npos)
      << toString(Main);
}

TEST_F(EngineTest, DeadAssignElimRemovesDeadStore) {
  std::string Out = optimize(opts::deadAssignElim(), R"(
    proc main(x) {
      decl a;
      a := 5;
      a := x;
      return a;
    }
  )");
  // The first a := 5 is dead (redefined without use).
  EXPECT_NE(Out.find("1: skip"), std::string::npos) << Out;
  EXPECT_NE(Out.find("a := x"), std::string::npos) << Out;
}

TEST_F(EngineTest, DeadAssignElimKeepsLiveStore) {
  std::string Out = optimize(opts::deadAssignElim(), R"(
    proc main(x) {
      decl a;
      a := 5;
      x := a;
      return x;
    }
  )");
  EXPECT_NE(Out.find("a := 5"), std::string::npos) << Out;
}

TEST_F(EngineTest, DeadAssignElimConservativeAroundPointers) {
  // a's value may be read through *p: the assignment is not dead.
  std::string Out = optimize(opts::deadAssignElim(), R"(
    proc main(x) {
      decl a;
      decl p;
      p := &a;
      a := 5;
      x := *p;
      a := 0;
      return x;
    }
  )");
  EXPECT_NE(Out.find("a := 5"), std::string::npos) << Out;
}

TEST_F(EngineTest, SelfAssignRemoval) {
  std::string Out = optimize(opts::selfAssignRemoval(), R"(
    proc main(x) {
      decl a;
      a := a;
      a := x;
      return a;
    }
  )");
  EXPECT_NE(Out.find("1: skip"), std::string::npos) << Out;
  EXPECT_NE(Out.find("a := x"), std::string::npos) << Out;
}

TEST_F(EngineTest, RedundantBranchElim) {
  std::string Out = optimize(opts::redundantBranchElim(), R"(
    proc main(x) {
      decl a;
      if a goto end else end;
    end:
      return x;
    }
  )");
  EXPECT_NE(Out.find("if 1 goto 2 else 2"), std::string::npos) << Out;
}

TEST_F(EngineTest, PreDuplicateInsertsInElseBranch) {
  // The paper's §2.3 fragment: x := a + b is partially redundant.
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
  RunStats Stats;
  std::string Out = optimize(opts::preDuplicate(), Text, &Stats);
  EXPECT_GE(Stats.AppliedCount, 1u);
  // The skip in the else leg (node 8) became x := a + b.
  EXPECT_NE(Out.find("8: x := a + b"), std::string::npos) << Out;
}

TEST_F(EngineTest, Delta_MatchesDefinitionSites) {
  Optimization O = opts::constProp();
  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl c;
      decl d;
      a := 2;
      c := a;
      d := a;
      return d;
    }
  )");
  RunStats Stats;
  auto Delta = computeDelta(O.Pat, *Prog.findProc("main"), Registry,
                            nullptr, &Stats);
  ASSERT_EQ(Delta.size(), 2u);
  EXPECT_EQ(Delta[0].Index, 4);
  EXPECT_EQ(Delta[1].Index, 5);
  EXPECT_EQ(Delta[0].Theta.lookup("X")->asVar(), "c");
  EXPECT_EQ(Delta[1].Theta.lookup("X")->asVar(), "d");
}

TEST_F(EngineTest, ChooseSubsetOnlyAppliesSelection) {
  Optimization O = opts::constProp();
  // Select only the first legal site.
  O.Choose = [](const std::vector<MatchSite> &Delta, const Procedure &) {
    std::vector<MatchSite> Out;
    if (!Delta.empty())
      Out.push_back(Delta.front());
    return Out;
  };
  std::string Out = optimize(O, R"(
    proc main(x) {
      decl a;
      decl c;
      decl d;
      a := 2;
      c := a;
      d := a;
      return d;
    }
  )");
  EXPECT_NE(Out.find("c := 2"), std::string::npos) << Out;
  EXPECT_NE(Out.find("d := a"), std::string::npos) << Out;
}

TEST_F(EngineTest, ChooseCannotInventSites) {
  Optimization O = opts::constProp();
  O.Choose = [](const std::vector<MatchSite> &, const Procedure &) {
    // A malicious heuristic returning a fabricated site.
    Substitution Theta;
    Theta.bind("X", Binding::var("x"));
    Theta.bind("Y", Binding::var("x"));
    Theta.bind("C", Binding::constant(777));
    return std::vector<MatchSite>{{0, Theta}};
  };
  std::string Out = optimize(O, R"(
    proc main(x) {
      decl a;
      a := 2;
      x := a;
      return x;
    }
  )");
  EXPECT_EQ(Out.find("777"), std::string::npos) << Out;
}

TEST_F(EngineTest, TaintAnalysisLabelsUntaintedVars) {
  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl a;
      decl b;
      decl p;
      p := &a;
      b := 1;
      return b;
    }
  )");
  Procedure &Main = *Prog.findProc("main");
  Labeling Labels;
  RunStats Stats;
  runPureAnalysis(opts::taintAnalysis(), Main, Registry, Labels, &Stats);
  EXPECT_GT(Stats.DeltaSize, 0u);

  GroundLabel NotTaintedA{"notTainted", {Binding::var("a")}};
  GroundLabel NotTaintedB{"notTainted", {Binding::var("b")}};
  // After p := &a (node 4 onward), a is tainted but b is not.
  EXPECT_FALSE(Labels[4].count(NotTaintedA));
  EXPECT_TRUE(Labels[4].count(NotTaintedB));
  // Before the address-taking (node 3), a is still untainted.
  EXPECT_TRUE(Labels[3].count(NotTaintedA));
}

/// Δ from the unseeded solve: every fact at every node, extended by a
/// match of s — computeDelta's definition before it matched sites first.
std::vector<MatchSite> unseededDelta(const TransformationPattern &Pat,
                                     const Procedure &P,
                                     const LabelRegistry &Registry,
                                     const Labeling *L) {
  Cfg G(P);
  GuardSolution Sol = solveGuard(Pat.Dir, Pat.G, G, Registry, L);
  std::vector<MatchSite> Delta;
  for (int I = 0; I < P.size(); ++I) {
    std::set<Substitution> Seen;
    for (const Substitution &Theta : Sol.AtNode[I]) {
      Substitution Extended = Theta;
      if (matchStmt(Pat.From, P.stmtAt(I), Extended) &&
          Seen.insert(Extended).second)
        Delta.push_back({I, std::move(Extended)});
    }
  }
  return Delta;
}

/// Site-seeded solving is exact: over a generated corpus with pointers,
/// gotos, returns in loops, helper calls and bait/alias pressure, every
/// sound and buggy rule's computeDelta equals the unseeded Δ on every
/// procedure, with and without the analyses' labeling.
TEST_F(EngineTest, SiteSeededDeltaEqualsUnseeded) {
  std::vector<PureAnalysis> Analyses = opts::allAnalyses();
  std::vector<Optimization> Rules = opts::allOptimizations();
  for (opts::BuggyCase &Case : opts::allBuggyOptimizations())
    Rules.push_back(std::move(Case.Opt));

  // The pass manager's registry: analyses' labels first, then the
  // rule's own (a name keeps its first definition).
  auto define = [](LabelRegistry &R, const std::vector<LabelDef> &Defs) {
    for (const LabelDef &Def : Defs)
      if (!R.findPredicate(Def.Name))
        R.define(Def);
  };
  LabelRegistry AnalysisRegistry;
  for (const PureAnalysis &A : Analyses) {
    define(AnalysisRegistry, A.Labels);
    AnalysisRegistry.declareAnalysisLabel(A.LabelName);
  }
  std::vector<LabelRegistry> RuleRegistries;
  for (const Optimization &O : Rules) {
    RuleRegistries.push_back(AnalysisRegistry);
    define(RuleRegistries.back(), O.Labels);
  }

  unsigned Compared = 0, NonEmpty = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    GenOptions Options;
    Options.NumStmts = 10 + Seed % 4 * 3;
    Options.NumVars = 4;
    Options.WithPointers = Seed % 4 != 0;
    Options.WithGotos = Seed % 2 == 0;
    Options.WithReturnInLoop = Seed % 3 == 0;
    Options.WithCalls = Seed % 4 == 1;
    Options.NumHelperProcs = Options.WithCalls ? 1 : 0;
    Options.AliasPressure = Options.WithPointers ? 30 : 0;
    Options.BaitPressure = 40;
    Program Prog = generateProgram(Options, Seed);
    for (const Procedure &P : Prog.Procs) {
      Labeling Labels;
      for (const PureAnalysis &A : Analyses)
        runPureAnalysis(A, P, AnalysisRegistry, Labels);
      for (size_t R = 0; R < Rules.size(); ++R)
        for (const Labeling *L : {static_cast<const Labeling *>(nullptr),
                                  static_cast<const Labeling *>(&Labels)}) {
          const Optimization &O = Rules[R];
          std::vector<MatchSite> Seeded =
              computeDelta(O.Pat, P, RuleRegistries[R], L);
          ASSERT_EQ(Seeded, unseededDelta(O.Pat, P, RuleRegistries[R], L))
              << O.Name << " on " << P.Name << " of seed " << Seed
              << (L ? " (labeled)" : "");
          ++Compared;
          NonEmpty += !Seeded.empty();
        }
    }
  }
  // The corpus must exercise the rules, not just agree on empty Δs.
  EXPECT_GT(NonEmpty, Compared / 4) << NonEmpty << " of " << Compared;
}

} // namespace
