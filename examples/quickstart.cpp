//===- quickstart.cpp - Define, prove, and run an optimization -----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The complete Cobalt workflow in one file:
///
///   1. write an optimization as a guarded rewrite rule with a witness
///      (the paper's Example 1, constant propagation);
///   2. let the checker *prove it sound* — once and for all, for any
///      input program;
///   3. run it through the execution engine on a program.
///
/// Everything goes through one `api::CobaltService`: it owns the label
/// registry, the prover, the pass pipeline, and (when configured) the
/// thread pool and the persistent verdict cache.
///
/// Build and run:  ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "core/Builder.h"
#include "ir/Interp.h"
#include "ir/Printer.h"
#include "opts/Labels.h"

#include <cstdio>

using namespace cobalt;

int main() {
  // ------------------------------------------------------------------
  // 1. The optimization: paper §2.1, Example 1.
  //
  //      stmt(Y := C)  followed by  ¬mayDef(Y)
  //      until  X := Y  ⇒  X := C
  //      with witness  η(Y) = C
  // ------------------------------------------------------------------
  Optimization ConstProp =
      OptBuilder("const_prop")
          .forward()
          .psi1(stmtIs("Y := C"))
          .psi2(fNot(labelF("mayDef", {tExpr("Y")})))
          .rewrite("X := Y", "X := C")
          .witness(wEq(curEval("Y"), curEval("C")))
          .withLabel(opts::syntacticDefLabel())
          .withLabel(opts::mayDefLabel())
          .build();

  // ------------------------------------------------------------------
  // 2. Prove it sound (paper §4): the checker discharges the
  //    optimization-specific obligations F1-F3 with Z3. No testing, no
  //    trust: if this succeeds, every transformation the pattern ever
  //    suggests is semantics-preserving.
  //
  //    With Config.Jobs > 1 the obligations fan out over a thread pool;
  //    the report is bit-identical either way.
  // ------------------------------------------------------------------
  std::shared_ptr<api::CobaltService> Svc =
      api::CobaltService::Builder().addOptimization(ConstProp).build();
  api::CheckResponse Gate = Svc->check(api::CheckRequest{});
  const checker::CheckReport &Report = Gate.Suite.Reports.front();
  std::printf("soundness check: %s\n\n", Report.str().c_str());
  if (!Report.Sound)
    return 1;

  // ------------------------------------------------------------------
  // 3. Run it (paper §5.2). The engine evaluates all instances of the
  //    pattern simultaneously with a substitution-set dataflow analysis.
  // ------------------------------------------------------------------
  auto Prog = Svc->parseProgram(R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      a := 2;
      b := 3;
      c := a;
      return c;
    }
  )");
  if (!Prog) {
    std::fprintf(stderr, "%s\n", Prog.error().str().c_str());
    return 1;
  }
  std::printf("before:\n%s\n", ir::toString(*Prog).c_str());

  // Only proven passes run: the extensible-compiler gate (§1/§6).
  api::PipelineRequest Req;
  Req.Prog = std::move(*Prog);
  Req.PassNames = Gate.Suite.provenPassNames();
  Req.SelectedOnly = true;
  api::PipelineResponse Run = Svc->run(std::move(Req));
  std::printf("after %u rewrite(s):\n%s\n", Run.Result.Applied,
              ir::toString(Run.Prog).c_str());

  // The program still computes the same thing.
  ir::Interpreter Interp(Run.Prog);
  ir::RunResult R = Interp.run(0);
  std::printf("main(0) = %s\n", R.str().c_str());
  return 0;
}
