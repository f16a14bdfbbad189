//===- pointer_analysis.cpp - Paper §2.4: pure analyses feed rewrites -----===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Example 4 from the paper: the taint analysis is a *pure analysis* —
/// a guard plus a defined label, no rewrite — whose labels make mayDef
/// "less conservative in the face of pointers". We print the per-node
/// notTainted labels and contrast plain constant propagation (killed by
/// the pointer store) with the precise variant (survives it).
///
/// Nothing here is proven, so the example drives the engine's
/// `PassManager` directly: it registers the labels and the analysis,
/// runs it, and reads the per-node labeling back with labelingFor(). The
/// contrast at the end calls the engine's free functions.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "engine/PassManager.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <cstdio>

using namespace cobalt;
using namespace cobalt::engine;

int main() {
  PassManager PM;
  for (const LabelDef &Def : opts::standardLabels())
    PM.defineLabel(Def);
  PM.addAnalysis(opts::taintAnalysis()); // declares the notTainted label

  ir::Program Prog = ir::parseProgramOrDie(R"(
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
  ir::Procedure &Main = *Prog.findProc("main");
  std::printf("program (only b's address is taken):\n%s\n",
              ir::toString(Prog).c_str());

  // Run the pure analysis and show its labeling of the CFG (§3.2.3).
  std::vector<PassReport> Reports = PM.run(Prog);
  const Labeling &Labels = *PM.labelingFor("main");
  std::printf("taint analysis added %u labels:\n", Reports.front().DeltaSize);
  for (int I = 0; I < Main.size(); ++I) {
    std::printf("  %2d: %-18s", I,
                ir::toString(Main.stmtAt(I)).c_str());
    for (const GroundLabel &L : Labels[I])
      std::printf(" %s", L.str().c_str());
    std::printf("\n");
  }

  // Plain const prop: the pointer store may define anything -> no
  // rewrite. Precise const prop: a is untainted -> c := 2.
  {
    ir::Program P1 = Prog;
    RunStats S1 = runOptimization(opts::constProp(), *P1.findProc("main"),
                                  PM.registry(), nullptr);
    std::printf("\nconservative const_prop: %u rewrite(s) "
                "(*p := x may define a)\n",
                S1.AppliedCount);

    ir::Program P2 = Prog;
    RunStats S2 =
        runOptimization(opts::constPropPrecise(), *P2.findProc("main"),
                        PM.registry(), &Labels);
    std::printf("precise const_prop_precise: %u rewrite(s):\n%s",
                S2.AppliedCount, ir::toString(P2).c_str());
  }
  return 0;
}
