//===- Oracle.cpp ---------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "engine/PassManager.h"
#include "ir/Interp.h"
#include "support/Telemetry.h"

using namespace cobalt;
using namespace cobalt::fuzz;
using namespace cobalt::ir;

const char *Divergence::kindName() const {
  switch (K) {
  case Kind::DK_WrongValue:
    return "wrong-value";
  case Kind::DK_OptimizedStuck:
    return "optimized-stuck";
  case Kind::DK_OptimizedHangs:
    return "optimized-hangs";
  case Kind::DK_IllFormed:
    return "ill-formed";
  }
  return "wrong-value";
}

std::string Divergence::str() const {
  return std::string(kindName()) + " on input " + std::to_string(Input) +
         ": original " + Original + ", optimized " + Optimized;
}

std::optional<Divergence>
fuzz::diffPrograms(const Program &Original, const Program &Optimized,
                   const OracleOptions &Options) {
  if (auto Err = validateProgram(Optimized)) {
    Divergence D;
    D.K = Divergence::Kind::DK_IllFormed;
    D.Input = Options.Inputs.empty() ? 0 : Options.Inputs.front();
    D.Original = "well-formed";
    D.Optimized = *Err;
    return D;
  }
  for (int64_t Input : Options.Inputs) {
    Interpreter IO(Original), IT(Optimized);
    RunResult RO = IO.run(Input, Options.Fuel);
    if (auto *T = support::Telemetry::active())
      T->Metrics.add("fuzz.oracle.execs", 2);
    if (!RO.returned())
      continue; // stuck/diverging originals impose no obligation (§4)
    RunResult RT = IT.run(Input, Options.FuelOptimized);
    Divergence D;
    D.Input = Input;
    D.Original = RO.str();
    D.Optimized = RT.str();
    if (RT.returned()) {
      if (RT.Result == RO.Result)
        continue;
      D.K = Divergence::Kind::DK_WrongValue;
      return D;
    }
    D.K = RT.stuck() ? Divergence::Kind::DK_OptimizedStuck
                     : Divergence::Kind::DK_OptimizedHangs;
    return D;
  }
  return std::nullopt;
}

ApplyOutcome fuzz::applyRule(const Optimization &Opt,
                             const std::vector<PureAnalysis> &Analyses,
                             const Program &Prog) {
  engine::PassManager PM;
  // Raw mode: no snapshots and no interpreter spot-check. The
  // transactional machinery would roll a miscompile back before the
  // oracle could see it — the fuzzer is the scaled-up version of that
  // spot-check and must observe the unprotected behavior.
  PM.setTxPolicy({/*Transactional=*/false});
  for (const PureAnalysis &A : Analyses)
    PM.addAnalysis(A);
  PM.addOptimization(Opt);

  ApplyOutcome Out;
  Out.Prog = Prog;
  for (const engine::PassReport &R : PM.run(Out.Prog))
    Out.Applied += R.AppliedCount;
  return Out;
}

CrossCheck fuzz::crossCheck(checker::CheckReport::Verdict V, bool Diverged) {
  if (!Diverged)
    return CrossCheck::CC_Consistent;
  return V == checker::CheckReport::Verdict::V_Sound
             ? CrossCheck::CC_CheckerMissed
             : CrossCheck::CC_CaughtByChecker;
}
