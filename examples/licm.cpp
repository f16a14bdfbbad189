//===- licm.cpp - Paper §6: loop-invariant code motion by composition -----===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Paper §6 ("Expressiveness"): optimizations with effects at multiple
/// program points, "such as various sorts of code motion, can in fact be
/// decomposed into several simpler transformations, each of which fits
/// Cobalt's transformation pattern syntax." Loop-invariant code motion is
/// the classic example: hoisting t := a * b out of a loop is
///
///   pre_duplicate   insert t := a * b at the loop preheader's skip
///                   (legal: every path from there reaches the loop's
///                   computation with a and b unchanged),
///   cse             the in-loop computation becomes t := t,
///   self_assign_removal   …which disappears.
///
/// Each piece is proven sound in isolation; composing proven passes needs
/// no further proof (§4's Definition 2 argument applies pass by pass).
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
  // t := a * b is recomputed every iteration although a, b are loop
  // invariant. The preheader carries the skip that hosts the hoist (the
  // engine "conceptually inserts skips as needed", paper footnote 3; our
  // front end writes it explicitly). Note the do-while shape: the
  // backward guard licenses an insertion only where the computation is
  // *anticipated on every path* — hoisting past a zero-trip while-loop
  // test would execute a * b on a path that never needed it, and Cobalt
  // (rightly) refuses to prove that without it.
  ir::Program Prog = ir::parseProgramOrDie(R"(
    proc main(n) {
      decl a;
      decl b;
      decl t;
      decl s;
      decl i;
      decl g;
      a := 3;
      b := 4;
      s := 0;
      i := 0;
      skip;
    body:
      t := a * b;
      s := s + t;
      i := i + 1;
      g := i < n;
      if g goto body else done;
    done:
      return s;
    }
  )");
  std::printf("input (t := a * b recomputed in the loop):\n%s\n",
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

  std::printf("\nafter (the multiply hoisted to the preheader; the loop "
              "body is multiplication-free):\n%s\n",
              ir::toString(Run.Prog).c_str());

  for (int64_t Input : {0, 1, 5}) {
    ir::Interpreter IO(Prog), IT(Run.Prog);
    ir::RunResult RO = IO.run(Input), RT = IT.run(Input);
    std::printf("main(%lld): original %s, optimized %s %s\n",
                static_cast<long long>(Input), RO.str().c_str(),
                RT.str().c_str(),
                RO.Result == RT.Result ? "[equal]" : "[MISMATCH!]");
  }
  return 0;
}
