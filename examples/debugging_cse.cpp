//===- debugging_cse.cpp - Paper §6: the redundant-load bug story ---------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's debugging anecdote, replayed mechanically. Redundant-load
/// elimination rewrites a second load of *p to reuse the first one. The
/// authors' initial version only excluded *pointer stores* from the
/// witnessing region — missing that a direct assignment y := e can also
/// change *p, because p could point to y. Their failed soundness proof
/// exposed it; so does ours, with a concrete miscompilation to match.
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "engine/Engine.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <algorithm>
#include <cstdio>

using namespace cobalt;
using namespace cobalt::engine;

int main() {
  api::CobaltConfig Config;
  Config.Prover.TimeoutMs = 4000;
  opts::BuggyCase Buggy = opts::loadCseNoTaint();
  api::CobaltService::Builder B;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  B.addAnalysis(opts::taintAnalysis()); // declares notTainted
  B.addOptimization(Buggy.Opt);
  B.addOptimization(opts::loadCse());
  std::shared_ptr<api::CobaltService> Svc = B.build();
  const LabelRegistry &Registry = Svc->registry();
  auto Check = [&Svc](const std::string &Name) {
    api::CheckRequest Req;
    Req.Only = {Name};
    return Svc->check(Req).Suite.Reports.front();
  };

  // ------------------------------------------------------------------
  // The program that exposes the bug: p points to y, so `y := 7`
  // changes *p between the two loads.
  // ------------------------------------------------------------------
  ir::Program Prog = ir::parseProgramOrDie(R"(
    proc main(n) {
      decl y;
      decl p;
      decl a;
      decl b;
      y := 1;
      p := &y;
      a := *p;
      y := 7;
      b := *p;
      return b;
    }
  )");
  std::printf("program (p aliases y; *p is 1 then 7):\n%s\n",
              ir::toString(Prog).c_str());

  // ------------------------------------------------------------------
  // 1. What the buggy optimization would DO: a real miscompilation.
  //    (We run it deliberately, without checking it first.)
  // ------------------------------------------------------------------
  ir::Program Miscompiled = Prog;
  RunStats Stats = runOptimization(Buggy.Opt, *Miscompiled.findProc("main"),
                                   Registry, nullptr);
  std::printf("buggy '%s' rewrote %u site(s):\n%s\n",
              Buggy.Opt.Name.c_str(), Stats.AppliedCount,
              ir::toString(Miscompiled).c_str());
  ir::Interpreter IO(Prog), IB(Miscompiled);
  std::printf("original:     main(0) = %s\n", IO.run(0).str().c_str());
  std::printf("miscompiled:  main(0) = %s   <-- wrong!\n\n",
              IB.run(0).str().c_str());

  // ------------------------------------------------------------------
  // 2. What the checker SAYS, before any program is ever compiled: the
  //    preservation obligation fails, with a counterexample context.
  // ------------------------------------------------------------------
  checker::CheckReport Bad = Check(Buggy.Opt.Name);
  std::printf("checking the buggy version: %s\n",
              Bad.Sound ? "SOUND (?!)" : "rejected");
  for (const auto &Ob : Bad.Obligations)
    if (!Ob.proven()) {
      std::printf("  %s failed — the witnessing region does not preserve "
                  "eta(X) = eta(*P)\n",
                  Ob.Name.c_str());
      // The model's first line only: a cut inside a multi-line model
      // could end on a line break and leave the "..." dangling.
      if (!Ob.Counterexample.empty())
        std::printf("  counterexample context: %s...\n",
                    Ob.Counterexample
                        .substr(0, std::min<size_t>(
                                       140, Ob.Counterexample.find('\n')))
                        .c_str());
      break;
    }

  // ------------------------------------------------------------------
  // 3. The fix (paper: "once we incorporated pointer information"):
  //    intervening assignments must target untainted variables. The
  //    fixed version is proven sound, and on this program it simply
  //    fires nowhere (y is tainted).
  // ------------------------------------------------------------------
  checker::CheckReport Good = Check(opts::loadCse().Name);
  std::printf("\nchecking the fixed version: %s (%.2f s)\n",
              Good.Sound ? "SOUND" : "rejected", Good.TotalSeconds);

  ir::Program Safe = Prog;
  Labeling Labels;
  runPureAnalysis(opts::taintAnalysis(), *Safe.findProc("main"), Registry,
                  Labels);
  RunStats SafeStats = runOptimization(
      opts::loadCse(), *Safe.findProc("main"), Registry, &Labels);
  std::printf("fixed 'load_cse' on the alias program: %u rewrite(s) "
              "(correctly none)\n",
              SafeStats.AppliedCount);
  return Good.Sound && !Bad.Sound ? 0 : 1;
}
