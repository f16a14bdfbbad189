//===- pre_pipeline.cpp - Paper §2.3: PRE as three simple passes ----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Partial redundancy elimination, the paper's showcase for profitability
/// heuristics: a complex code-motion optimization decomposed into three
/// Cobalt patterns, each trivially provable —
///
///   pre_duplicate        insert x := a + b in the else leg (backward,
///                        with a nontrivial choose function),
///   cse                  the join's recomputation becomes x := x,
///   self_assign_removal  which then disappears.
///
/// Only the transformation patterns matter for soundness; the heuristic
/// choosing *where* to insert is unrestricted code (§2.3).
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Optimizations.h"

#include <cstdio>

using namespace cobalt;

int main() {
  // The §2.3 code fragment: x := a + b after the branch is redundant on
  // the true leg only.
  ir::Program Prog = ir::parseProgramOrDie(R"(
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
  )");
  std::printf("input (x := a + b at the join is PARTIALLY redundant):\n%s\n",
              ir::toString(Prog).c_str());

  std::shared_ptr<api::CobaltService> Svc =
      api::CobaltService::Builder()
          .addOptimization(opts::preDuplicate())
          .addOptimization(opts::cse())
          .addOptimization(opts::selfAssignRemoval())
          .build();

  api::PipelineRequest Req;
  Req.Prog = Prog; // the original stays for the comparison below
  api::PipelineResponse Run = Svc->run(std::move(Req));
  for (const engine::PassReport &R : Run.Result.Reports)
    std::printf("pass %-22s legal=%u applied=%u\n", R.PassName.c_str(),
                R.DeltaSize, R.AppliedCount);

  std::printf("\nresult (the else leg computes it; the join is clean):\n%s\n",
              ir::toString(Run.Prog).c_str());

  for (int64_t Input : {0, 1, 7}) {
    ir::Interpreter IO(Prog), IT(Run.Prog);
    ir::RunResult RO = IO.run(Input), RT = IT.run(Input);
    std::printf("main(%lld): original %s, optimized %s %s\n",
                static_cast<long long>(Input), RO.str().c_str(),
                RT.str().c_str(),
                RO.Result == RT.Result ? "[equal]" : "[MISMATCH!]");
  }
  return 0;
}
