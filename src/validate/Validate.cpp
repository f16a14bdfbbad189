//===- Validate.cpp - Translation validation of IL program pairs -*- C++ -*-=//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Orchestration of the validator pipeline (see Validate.h):
// well-formedness, the concrete differential probe (the only source of
// Inequivalent), alpha-equivalence, and per-procedure cut-point
// simulation proofs discharged through SoundnessChecker.
//
// The compositional policy for calls: the Z3 call contract models the
// post-state of `x := p(b)` as one *function* of the pre-state and the
// call statement (Encoder::CallStoF/CallAllocF). Using a single function
// for both programs silently assumes the two `p`s have identical ↪π
// effect, so simulation proofs are attempted only when every callee pair
// is *effect-identical*: alpha-equivalent (identical effect by
// construction) or itself simulation-proven with full-state return
// equality, closed under the callee relation (greatest fixpoint;
// self-recursion is admitted assume-guarantee style, inducting on the
// call-tree height). `main` alone may be proven with return-value-only
// equality at returns — unless something calls it.
//
//===----------------------------------------------------------------------===//

#include "validate/Validate.h"

#include "checker/Obligations.h"
#include "ir/Printer.h"
#include "support/Fnv1a.h"
#include "support/Telemetry.h"
#include "validate/Alpha.h"
#include "validate/Facts.h"
#include "validate/Relation.h"

#include "fuzz/Oracle.h"
#include "opts/Labels.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>

using namespace cobalt;
using namespace cobalt::validate;

const char *validate::verdictName(Verdict V) {
  switch (V) {
  case Verdict::V_Equivalent:
    return "Equivalent";
  case Verdict::V_Inequivalent:
    return "Inequivalent";
  case Verdict::V_Unknown:
    return "Unknown";
  }
  return "Unknown";
}

//===----------------------------------------------------------------------===//
// Fingerprints and probe inputs.
//===----------------------------------------------------------------------===//

namespace {

/// Folds a string field into the fingerprint \p H, then a 0xff byte that
/// ends the field.
void hashStr(uint64_t &H, const std::string &S) {
  H = support::fnv1a(0xff, support::fnv1a(S, H));
}

/// Folds the eight little-endian bytes of \p V into \p H.
void hashInt(uint64_t &H, int64_t V) {
  for (int I = 0; I < 8; ++I)
    H = support::fnv1a(static_cast<unsigned char>(V >> (8 * I)), H);
}

void collectConsts(const ir::Program &Prog, std::set<int64_t> &Out) {
  auto AddBase = [&Out](const ir::BaseExpr &B) {
    if (ir::isConst(B) && !ir::asConst(B).IsMeta)
      Out.insert(ir::asConst(B).Value);
  };
  for (const ir::Procedure &P : Prog.Procs)
    for (const ir::Stmt &S : P.Stmts) {
      if (S.is<ir::AssignStmt>()) {
        const ir::Expr &E = S.as<ir::AssignStmt>().Value;
        if (E.is<ir::ConstVal>() && !E.as<ir::ConstVal>().IsMeta)
          Out.insert(E.as<ir::ConstVal>().Value);
        if (E.is<ir::OpExpr>())
          for (const ir::BaseExpr &B : E.as<ir::OpExpr>().Args)
            AddBase(B);
      } else if (S.is<ir::BranchStmt>()) {
        AddBase(S.as<ir::BranchStmt>().Cond);
      }
    }
}

/// The probe input set: the configured inputs plus c-1, c, c+1 for every
/// program literal c — miscompiles tend to hide at the boundaries the
/// program itself mentions. Sorted, deduplicated, capped.
std::vector<int64_t> probeInputs(const ir::Program &A, const ir::Program &B,
                                 const ValidationOptions &Options) {
  std::set<int64_t> Mined;
  collectConsts(A, Mined);
  collectConsts(B, Mined);
  std::set<int64_t> All(Options.Inputs.begin(), Options.Inputs.end());
  for (int64_t C : Mined) {
    All.insert(C);
    if (C > INT64_MIN)
      All.insert(C - 1);
    if (C < INT64_MAX)
      All.insert(C + 1);
  }
  std::vector<int64_t> Out(All.begin(), All.end());
  if (Out.size() > 64)
    Out.resize(64);
  return Out;
}

} // namespace

uint64_t validate::fingerprintPair(const ir::Program &Original,
                                   const ir::Program &Candidate,
                                   const ValidationOptions &Options) {
  // The seed is not support::Fnv1aBasis (it lacks the basis' last decimal
  // digit); pair fingerprints key persisted verdicts, so it stays.
  uint64_t H = 1469598103934665603ull;
  hashStr(H, "validate 1");
  hashStr(H, ir::toString(Original));
  hashStr(H, ir::toString(Candidate));
  for (int64_t I : Options.Inputs)
    hashInt(H, I);
  hashInt(H, static_cast<int64_t>(Options.Fuel));
  hashInt(H, static_cast<int64_t>(Options.FuelCandidate));
  hashInt(H, Options.MaxPathsPerCut);
  hashInt(H, Options.MaxPathLen);
  hashInt(H, Options.MaxFactsPerCut);
  hashInt(H, Options.UseFacts ? 1 : 0);
  return H;
}

//===----------------------------------------------------------------------===//
// Simulation obligations for one procedure pair.
//===----------------------------------------------------------------------===//

namespace {

/// Everything a pair's obligation closures read. Owned by shared_ptr so
/// the closures stay valid however long the checker queues them; the
/// procedures are *copies*, deliberately decoupled from the caller.
struct SimContext {
  ir::Procedure A;
  ir::Procedure B;
  Correspondence Corr;
  /// A-paths per original cut, B-paths per candidate stop.
  std::map<int, std::vector<CutPath>> PathsA;
  std::map<int, std::vector<CutPath>> PathsB;
  std::vector<std::vector<ValueFact>> Facts;
  bool NeedFullState = false;
};

z3::expr componentsEq(const checker::ZState &X, const checker::ZState &Y) {
  return X.Env == Y.Env && X.Scope == Y.Scope && X.Sto == Y.Sto &&
         X.Alloc == Y.Alloc;
}

/// Builds the obligation for one (cut pair, original path): from a
/// well-formed fact-constrained symbolic state shared by both sides, the
/// original executing \p PathA forces *some* compatible candidate path
/// to execute to a related stop with an equal state (or an equal return).
z3::expr buildSimObligation(checker::ObligationBuilder &Bld,
                            const SimContext &Ctx, int CutA, int StopB,
                            const CutPath &PathA) {
  checker::Encoder &Enc = Bld.Enc;
  z3::context &C = Enc.ctx();
  checker::MetaEnv Ground; // ground fragments bind nothing

  checker::ZState Eta = Enc.freshState("cut");
  Bld.wfHyp(Eta);
  Bld.hyp(Eta.Ix == C.int_val(CutA));

  // Engine-mined facts of the original at this cut (sound for the shared
  // state: the relation makes the candidate state equal to the
  // original's, and the facts hold of every original state reaching the
  // cut by the proven rules' meta-theorem).
  if (CutA >= 0 && CutA < static_cast<int>(Ctx.Facts.size()))
    for (const ValueFact &F : Ctx.Facts[CutA]) {
      checker::MetaEnv FEnv;
      for (const auto &[Name, B] : F.Theta) {
        if (B.isVar())
          FEnv.emplace(Name, Enc.concreteVar(B.asVar()));
        else if (B.isConst())
          FEnv.emplace(Name,
                       C.int_val(static_cast<int64_t>(B.asConst())));
        else if (B.isExpr())
          FEnv.emplace(Name, Enc.buildExpr(B.asExpr(), Ground));
      }
      Bld.hyp(Bld.PE.witness(*F.W, &Eta, nullptr, nullptr, FEnv));
    }

  // Original side: hypotheses. The original actually executed this path,
  // so each step's definedness, the branch outcomes pinning the next
  // index, and well-formedness of the intermediate states are all givens.
  checker::ZState Cur = Eta;
  for (size_t K = 0; K < PathA.Nodes.size(); ++K) {
    int N = PathA.Nodes[K];
    int Next = K + 1 < PathA.Nodes.size() ? PathA.Nodes[K + 1] : PathA.End;
    z3::expr St = Enc.buildStmt(Ctx.A.stmtAt(N), Ground);
    Cur = Bld.stepHyp(Cur, St, "a" + std::to_string(K) + "_");
    Bld.hyp(Cur.Ix == C.int_val(Next));
    Bld.wfHyp(Cur);
  }
  std::optional<checker::ZEval> RetA;
  if (PathA.EndsAtReturn) {
    const ir::ReturnStmt &R = Ctx.A.stmtAt(PathA.End).as<ir::ReturnStmt>();
    RetA = Enc.evalExpr(Cur, Enc.buildExpr(ir::Expr(R.Value), Ground));
    Bld.hyp(RetA->Defined); // the original returned a value
  }

  // Candidate side: goal. One disjunct per compatible candidate path; no
  // hypotheses about candidate states are assumed (its steps' call
  // contract constraints are universally valid instances and may be
  // hoisted, but definedness and branch outcomes must be *proven*).
  z3::expr Goal = C.bool_val(false);
  auto It = Ctx.PathsB.find(StopB);
  const std::vector<CutPath> Empty;
  const std::vector<CutPath> &Cands =
      It != Ctx.PathsB.end() ? It->second : Empty;
  std::set<std::pair<int, int>> Related(Ctx.Corr.Pairs.begin(),
                                        Ctx.Corr.Pairs.end());
  unsigned Q = 0;
  for (const CutPath &PathB : Cands) {
    if (PathB.EndsAtReturn != PathA.EndsAtReturn)
      continue;
    if (!PathA.EndsAtReturn && !Related.count({PathA.End, PathB.End}))
      continue;
    checker::ZState BCur{C.int_val(StopB), Eta.Env, Eta.Scope, Eta.Sto,
                         Eta.Alloc};
    z3::expr Conj = C.bool_val(true);
    for (size_t K = 0; K < PathB.Nodes.size(); ++K) {
      int N = PathB.Nodes[K];
      int Next =
          K + 1 < PathB.Nodes.size() ? PathB.Nodes[K + 1] : PathB.End;
      z3::expr St = Enc.buildStmt(Ctx.B.stmtAt(N), Ground);
      checker::ZStep Step = Enc.encodeStep(
          BCur, St, "b" + std::to_string(Q) + "_" + std::to_string(K) + "_");
      Bld.hypAll(Step.Constraints);
      Conj = Conj && Step.Defined && Step.Post.Ix == C.int_val(Next);
      BCur = Step.Post;
    }
    if (PathA.EndsAtReturn) {
      const ir::ReturnStmt &R =
          Ctx.B.stmtAt(PathB.End).as<ir::ReturnStmt>();
      checker::ZEval RetB =
          Enc.evalExpr(BCur, Enc.buildExpr(ir::Expr(R.Value), Ground));
      Conj = Conj && RetB.Defined && RetB.Val == RetA->Val;
      if (Ctx.NeedFullState)
        Conj = Conj && componentsEq(Cur, BCur);
    } else {
      Conj = Conj && componentsEq(Cur, BCur);
    }
    Goal = Goal || Conj;
    ++Q;
  }
  return Goal;
}

/// Assembles the obligation set for one pair, or explains why it cannot
/// be attempted. \p EffectIdentical names the procedures whose pairs are
/// already known effect-identical (callees must come from this set, or
/// be the procedure itself — assume-guarantee for self-recursion).
bool prepareSimulation(const ir::Procedure &PA, const ir::Procedure &PB,
                       const std::set<std::string> &EffectIdentical,
                       bool NeedFullState, const ValidationOptions &Options,
                       uint64_t PairFp, checker::ObligationSet &Set,
                       std::string *Why) {
  if (PA.Param != PB.Param) {
    *Why = "parameter name differs (and bodies are not alpha-equivalent)";
    return false;
  }
  auto CalleesOk = [&](const ir::Procedure &P) {
    for (const ir::Stmt &S : P.Stmts)
      if (S.is<ir::CallStmt>()) {
        const std::string &Callee = S.as<ir::CallStmt>().Callee.Name;
        if (Callee != P.Name && !EffectIdentical.count(Callee)) {
          *Why = "callee '" + Callee + "' is not known effect-identical";
          return false;
        }
      }
    return true;
  };
  if (!CalleesOk(PA) || !CalleesOk(PB))
    return false;

  auto Ctx = std::make_shared<SimContext>();
  Ctx->A = PA;
  Ctx->B = PB;
  Ctx->NeedFullState = NeedFullState;
  ir::Cfg CfgA(Ctx->A), CfgB(Ctx->B);
  if (!synthesizeCorrespondence(CfgA, CfgB, Ctx->Corr, Why))
    return false;
  for (int I : Ctx->Corr.CutsA) {
    std::vector<CutPath> Paths;
    if (!enumeratePaths(CfgA, Ctx->Corr.CutsA, I, Options.MaxPathsPerCut,
                        Options.MaxPathLen, Paths)) {
      *Why = "original path enumeration exceeded caps at cut " +
             std::to_string(I);
      return false;
    }
    Ctx->PathsA.emplace(I, std::move(Paths));
  }
  for (int J : Ctx->Corr.StopsB) {
    std::vector<CutPath> Paths;
    if (!enumeratePaths(CfgB, Ctx->Corr.StopsB, J, Options.MaxPathsPerCut,
                        Options.MaxPathLen, Paths)) {
      *Why = "candidate path enumeration exceeded caps at stop " +
             std::to_string(J);
      return false;
    }
    Ctx->PathsB.emplace(J, std::move(Paths));
  }
  Ctx->Facts.assign(static_cast<size_t>(CfgA.size()), {});
  if (Options.UseFacts)
    Ctx->Facts = mineFacts(CfgA, Options.MaxFactsPerCut);

  Set = checker::ObligationSet();
  Set.Name = "validate " + PA.Name;
  // The fingerprint covers everything the obligations read: both
  // procedure bodies and every option knob (via PairFp), the pair name,
  // the proof strength, and the algorithm version — safe to cache.
  Set.Fingerprint = PairFp;
  hashStr(Set.Fingerprint, "sim 1");
  hashStr(Set.Fingerprint, PA.Name);
  hashStr(Set.Fingerprint, ir::toString(PA));
  hashStr(Set.Fingerprint, ir::toString(PB));
  hashInt(Set.Fingerprint, NeedFullState ? 1 : 0);
  Set.Cacheable = true;

  for (const auto &[CutA, StopB] : Ctx->Corr.Pairs) {
    const std::vector<CutPath> &Paths = Ctx->PathsA.at(CutA);
    for (size_t P = 0; P < Paths.size(); ++P) {
      const CutPath &PathA = Paths[P];
      checker::ObligationSpec Spec;
      std::ostringstream Name;
      Name << "sim(" << CutA << "," << StopB << ")#" << P << "->"
           << (PathA.EndsAtReturn ? "ret" : "cut") << PathA.End;
      Spec.Name = Name.str();
      int CA = CutA, SB = StopB;
      Spec.Build = [Ctx, CA, SB, PathA](checker::ObligationBuilder &B) {
        return buildSimObligation(B, *Ctx, CA, SB, PathA);
      };
      Set.Obligations.push_back(std::move(Spec));
    }
  }
  return true;
}

ProcOutcome outcomeFromReport(const std::string &Proc,
                              const checker::CheckReport &R) {
  ProcOutcome Out;
  Out.Name = Proc;
  Out.Method = "simulation";
  Out.CacheHit = R.CacheHit;
  Out.Degraded = R.degraded();
  Out.Seconds = R.TotalSeconds;
  Out.Obligations = static_cast<unsigned>(R.Obligations.size());
  for (const checker::ObligationResult &O : R.Obligations) {
    if (O.proven())
      ++Out.Proven;
    else if (O.St == checker::ObligationResult::Status::OS_Failed)
      ++Out.Failed;
    else
      ++Out.Unproven;
  }
  if (R.V == checker::CheckReport::Verdict::V_Sound) {
    Out.V = Verdict::V_Equivalent;
  } else {
    // A failed obligation is NOT a counterexample to equivalence — the
    // synthesized relation may simply be too weak — so both failure and
    // prover exhaustion degrade to Unknown.
    Out.V = Verdict::V_Unknown;
    for (const checker::ObligationResult &O : R.Obligations)
      if (!O.proven()) {
        Out.Detail = "obligation " + O.Name +
                     (O.St == checker::ObligationResult::Status::OS_Failed
                          ? " failed"
                          : " unproven");
        if (!O.Counterexample.empty())
          Out.Detail += " [" + O.Counterexample + "]";
        else if (O.unknown())
          Out.Detail += " (" + O.Err.Message + ")";
        break;
      }
    if (R.CacheHit && Out.Detail.empty())
      Out.Detail = "cached non-sound verdict";
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// The pipeline.
//===----------------------------------------------------------------------===//

ValidationReport validate::validatePrograms(const ir::Program &Original,
                                            const ir::Program &Candidate,
                                            checker::SoundnessChecker &Checker,
                                            const ValidationOptions &Options) {
  support::TraceSpan Span("validate", "validatePrograms");
  support::metricAdd("validate.pairs");
  auto Start = std::chrono::steady_clock::now();
  ValidationReport Report;
  auto Finish = [&](ValidationReport R) {
    R.TotalSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    support::metricAdd(std::string("validate.verdict.") +
                       verdictName(R.V));
    if (Span.enabled())
      Span.arg("verdict", std::string(verdictName(R.V)));
    return R;
  };

  // Well-formedness. An ill-formed *original* is an input error, not an
  // inequivalence; an ill-formed candidate where the original is fine is
  // a miscompile (the fuzz oracle's DK_IllFormed class).
  if (std::optional<std::string> Err = ir::validateProgram(Original)) {
    Report.V = Verdict::V_Unknown;
    Report.Detail = "original program ill-formed: " + *Err;
    return Finish(Report);
  }
  if (std::optional<std::string> Err = ir::validateProgram(Candidate)) {
    Report.V = Verdict::V_Inequivalent;
    Report.Method = "probe";
    Report.Witness = "candidate program ill-formed: " + *Err;
    return Finish(Report);
  }

  // Concrete differential probe — the only source of Inequivalent.
  fuzz::OracleOptions Oracle;
  Oracle.Inputs = probeInputs(Original, Candidate, Options);
  Oracle.Fuel = Options.Fuel;
  Oracle.FuelOptimized = Options.FuelCandidate;
  if (std::optional<fuzz::Divergence> D =
          fuzz::diffPrograms(Original, Candidate, Oracle)) {
    support::metricAdd("validate.probe.divergence");
    Report.V = Verdict::V_Inequivalent;
    Report.Method = "probe";
    Report.Witness = D->str();
    return Finish(Report);
  }

  // Pair procedures by name. Extra or missing procedures make the
  // alignment moot; behavior may still agree, so this degrades to
  // Unknown rather than Inequivalent.
  std::map<std::string, const ir::Procedure *> ByNameB;
  for (const ir::Procedure &P : Candidate.Procs)
    ByNameB[P.Name] = &P;
  if (Original.Procs.size() != Candidate.Procs.size() ||
      !std::all_of(Original.Procs.begin(), Original.Procs.end(),
                   [&](const ir::Procedure &P) {
                     return ByNameB.count(P.Name) != 0;
                   })) {
    Report.V = Verdict::V_Unknown;
    Report.Detail = "procedure sets differ between the programs";
    return Finish(Report);
  }

  // Anything (in either program) that is called must be proven at full
  // strength; main alone may settle for return-value equality.
  std::set<std::string> Called;
  for (const ir::Program *Prog : {&Original, &Candidate})
    for (const ir::Procedure &P : Prog->Procs)
      for (const ir::Stmt &S : P.Stmts)
        if (S.is<ir::CallStmt>())
          Called.insert(S.as<ir::CallStmt>().Callee.Name);

  // Alpha fast path, then the effect-identical greatest fixpoint: an
  // alpha-equivalent pair is only effect-identical if everything it
  // calls is (a renamed body still calls the *other* program's callees).
  std::map<std::string, ProcOutcome> Outcomes;
  std::set<std::string> Alpha;
  std::map<std::string, std::string> AlphaWhy;
  for (const ir::Procedure &PA : Original.Procs) {
    std::string Why;
    if (alphaEquivalent(PA, *ByNameB.at(PA.Name), &Why)) {
      Alpha.insert(PA.Name);
      support::metricAdd("validate.procs.alpha");
    } else {
      AlphaWhy[PA.Name] = Why;
    }
  }
  std::set<std::string> EffectIdentical = Alpha;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto It = EffectIdentical.begin(); It != EffectIdentical.end();) {
      const ir::Procedure *PA = Original.findProc(*It);
      const ir::Procedure *PB = ByNameB.at(*It);
      bool Ok = true;
      for (const ir::Procedure *P : {PA, PB})
        for (const ir::Stmt &S : P->Stmts)
          if (S.is<ir::CallStmt>() &&
              !EffectIdentical.count(S.as<ir::CallStmt>().Callee.Name))
            Ok = false;
      if (!Ok) {
        It = EffectIdentical.erase(It);
        Changed = true;
      } else {
        ++It;
      }
    }
  }

  for (const std::string &Name : Alpha)
    if (EffectIdentical.count(Name)) {
      ProcOutcome Out;
      Out.Name = Name;
      Out.V = Verdict::V_Equivalent;
      Out.Method = "alpha";
      Outcomes[Name] = Out;
    }

  // Simulation attempts, iterated: a helper proven with full-state
  // strength joins the effect-identical set and may unblock its callers.
  const uint64_t PairFp = fingerprintPair(Original, Candidate, Options);
  for (bool Progress = true; Progress;) {
    Progress = false;
    std::vector<checker::ObligationSet> Sets;
    std::vector<std::pair<std::string, bool>> Pending; // name, needFull
    for (const ir::Procedure &PA : Original.Procs) {
      if (Outcomes.count(PA.Name))
        continue;
      bool NeedFull = PA.Name != "main" || Called.count("main") != 0;
      checker::ObligationSet Set;
      std::string Why;
      if (prepareSimulation(PA, *ByNameB.at(PA.Name), EffectIdentical,
                            NeedFull, Options, PairFp, Set, &Why)) {
        Sets.push_back(std::move(Set));
        Pending.emplace_back(PA.Name, NeedFull);
      } else {
        // Remember the reason; a later fixpoint round may still clear it.
        ProcOutcome Out;
        Out.Name = PA.Name;
        Out.V = Verdict::V_Unknown;
        Out.Detail = AlphaWhy.count(PA.Name)
                         ? Why + " (alpha: " + AlphaWhy[PA.Name] + ")"
                         : Why;
        Outcomes[PA.Name] = Out; // provisional; erased on progress
      }
    }
    if (Sets.empty())
      break;
    support::metricAdd("validate.procs.simulation", Sets.size());
    std::vector<checker::CheckReport> Reports =
        Checker.checkObligationSets(Sets);
    for (size_t I = 0; I < Reports.size(); ++I) {
      ProcOutcome Out = outcomeFromReport(Pending[I].first, Reports[I]);
      Outcomes[Out.Name] = Out;
      if (Out.V == Verdict::V_Equivalent && Pending[I].second &&
          !EffectIdentical.count(Out.Name)) {
        EffectIdentical.insert(Out.Name);
        Progress = true;
      }
    }
    if (Progress) {
      // Clear provisional Unknowns blocked on callees; they get retried.
      for (auto It = Outcomes.begin(); It != Outcomes.end();) {
        if (It->second.V == Verdict::V_Unknown && It->second.Method.empty())
          It = Outcomes.erase(It);
        else
          ++It;
      }
    }
  }

  // Assemble, in original procedure order.
  bool AllEquivalent = true;
  for (const ir::Procedure &PA : Original.Procs) {
    auto It = Outcomes.find(PA.Name);
    ProcOutcome Out;
    if (It != Outcomes.end()) {
      Out = It->second;
    } else {
      Out.Name = PA.Name;
      Out.V = Verdict::V_Unknown;
      Out.Detail = "not attempted";
    }
    // An alpha-equivalent pair whose callees never settled is Unknown.
    if (Out.Method == "alpha" && !EffectIdentical.count(Out.Name)) {
      Out.V = Verdict::V_Unknown;
      Out.Detail = "alpha-equivalent, but a callee pair is unresolved";
    }
    if (Out.V != Verdict::V_Equivalent) {
      AllEquivalent = false;
      if (Report.Detail.empty())
        Report.Detail =
            "procedure '" + Out.Name + "': " +
            (Out.Detail.empty() ? "unproven" : Out.Detail);
    }
    Report.Degraded = Report.Degraded || Out.Degraded;
    Report.Procs.push_back(std::move(Out));
  }
  if (AllEquivalent) {
    Report.V = Verdict::V_Equivalent;
    Report.Method = "proof";
    Report.Detail.clear();
  } else {
    Report.V = Verdict::V_Unknown;
  }
  return Finish(Report);
}

//===----------------------------------------------------------------------===//
// Rendering.
//===----------------------------------------------------------------------===//

std::string ValidationReport::str() const {
  std::ostringstream Out;
  Out << "verdict: " << verdictName(V);
  if (!Method.empty())
    Out << " (" << Method << ")";
  Out << "\n";
  if (!Witness.empty())
    Out << "witness: " << Witness << "\n";
  if (!Detail.empty())
    Out << "detail: " << Detail << "\n";
  for (const ProcOutcome &P : Procs) {
    Out << "  proc " << P.Name << ": " << verdictName(P.V);
    if (!P.Method.empty())
      Out << " via " << P.Method;
    if (P.Obligations)
      Out << " (" << P.Proven << "/" << P.Obligations << " proven";
    if (P.Failed)
      Out << ", " << P.Failed << " failed";
    if (P.Unproven)
      Out << ", " << P.Unproven << " unproven";
    if (P.Obligations)
      Out << ")";
    if (P.CacheHit)
      Out << " [cached]";
    if (P.Degraded)
      Out << " [degraded]";
    if (!P.Detail.empty())
      Out << " — " << P.Detail;
    Out << "\n";
  }
  return Out.str();
}
