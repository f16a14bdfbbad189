//===- extensible_compiler.cpp - Paper §1: user-extensible compilers ------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's motivating vision: an extensible compiler that accepts
/// user-written optimizations — in Cobalt's *textual* syntax here — and
/// protects itself by proving each one sound before admitting it. A buggy
/// submission is rejected with the failing obligation and a
/// counterexample context; the trusted computing base never grows (§6).
///
/// The whole compiler is a thin shell around `api::CobaltService`:
/// parsing, proving, and the pass pipeline all live behind it. A
/// submitted rule is proven on a candidate service (the admitted rules
/// plus the newcomer); only a proven rule's candidate becomes the
/// compiler's service.
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <algorithm>
#include <cstdio>

using namespace cobalt;

namespace {

/// The "compiler": admits an optimization only if the checker proves it.
class ExtensibleCompiler {
public:
  ExtensibleCompiler() : Svc(build({})) {}

  bool submit(const std::string &CobaltSource) {
    auto Module = Svc->parseModule(CobaltSource);
    if (!Module) {
      std::printf("  parse error:\n%s\n", Module.error().Message.c_str());
      return false;
    }
    for (Optimization &O : Module->Optimizations) {
      // Registering the rule brings its labels into the candidate's
      // registry, so the checker can interpret its guards.
      std::vector<Optimization> Candidate = Svc->optimizations();
      Candidate.push_back(O);
      std::shared_ptr<api::CobaltService> Next = build(Candidate);
      api::CheckRequest Req;
      Req.Only = {O.Name};
      checker::CheckReport Report = Next->check(Req).Suite.Reports.front();
      if (!Report.Sound) {
        std::printf("  REJECTED %s:\n", O.Name.c_str());
        // Each model's first line only: a cut inside a multi-line model
        // could end on a line break and print an empty line.
        for (const auto &Ob : Report.Obligations)
          if (!Ob.proven())
            std::printf(
                "    obligation %s failed%s%s\n", Ob.Name.c_str(),
                Ob.Counterexample.empty() ? "" : ": ",
                Ob.Counterexample
                    .substr(0, std::min<size_t>(
                                   160, Ob.Counterexample.find('\n')))
                    .c_str());
        return false;
      }
      std::printf("  ADMITTED %s (%zu obligations, %.2f s)\n",
                  O.Name.c_str(), Report.Obligations.size(),
                  Report.TotalSeconds);
      Svc = std::move(Next);
    }
    return true;
  }

  ir::Program compile(ir::Program Prog) {
    api::PipelineRequest Req;
    Req.Prog = std::move(Prog);
    return Svc->run(std::move(Req)).Prog;
  }

private:
  static std::shared_ptr<api::CobaltService>
  build(const std::vector<Optimization> &Opts) {
    api::CobaltConfig Config;
    Config.Prover.TimeoutMs = 4000;
    api::CobaltService::Builder B;
    B.config(Config);
    for (const Optimization &O : Opts)
      B.addOptimization(O);
    return B.build();
  }

  std::shared_ptr<api::CobaltService> Svc;
};

} // namespace

int main() {
  ExtensibleCompiler Compiler;

  std::printf("user submits a correct copy-propagation pass:\n");
  Compiler.submit(R"(
    label syntacticDef(X) :=
      case currStmt of
        decl X => true | X := E9 => true | X := new => true
      else => false endcase;

    label mayDef(X) :=
      case currStmt of
        *Y9 := E9 => true | Y9 := P9(_) => true
      else => syntacticDef(X) endcase;

    optimization user_copy_prop :=
      forward
      stmt(Y := Z)
      followed by !mayDef(Y) && !mayDef(Z)
      until X := Y => X := Z
      with witness eta(Y) = eta(Z);
  )");

  std::printf("\nuser submits a buggy variant (forgot !mayDef(Z)):\n");
  bool Admitted = Compiler.submit(R"(
    label syntacticDef(X) :=
      case currStmt of
        decl X => true | X := E9 => true | X := new => true
      else => false endcase;

    label mayDef(X) :=
      case currStmt of
        *Y9 := E9 => true | Y9 := P9(_) => true
      else => syntacticDef(X) endcase;

    optimization user_copy_prop_buggy :=
      forward
      stmt(Y := Z)
      followed by !mayDef(Y)
      until X := Y => X := Z
      with witness eta(Y) = eta(Z);
  )");
  std::printf("  (the compiler %s it)\n\n",
              Admitted ? "!!! wrongly admitted" : "correctly refused");

  // Only the proven pass runs.
  ir::Program Prog = ir::parseProgramOrDie(R"(
    proc main(n) {
      decl y;
      decl r;
      y := n;
      r := y;
      return r;
    }
  )");
  std::printf("compiling with the admitted pass:\nbefore:\n%s\n",
              ir::toString(Prog).c_str());
  Prog = Compiler.compile(std::move(Prog));
  std::printf("after:\n%s\n", ir::toString(Prog).c_str());

  ir::Interpreter Interp(Prog);
  std::printf("main(41) = %s\n", Interp.run(41).str().c_str());
  return 0;
}
