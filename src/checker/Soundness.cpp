//===- Soundness.cpp ------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"

#include "checker/Encoder.h"
#include "checker/Obligations.h"
#include "checker/PatternEncoder.h"
#include "checker/ProverWorkerPool.h"
#include "checker/VerdictStore.h"
#include "ir/Printer.h"
#include "support/FaultInjection.h"
#include "support/Fnv1a.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>

using namespace cobalt;
using namespace cobalt::checker;
using namespace cobalt::ir;
using support::ErrorKind;

//===----------------------------------------------------------------------===//
// Verdict and status names.
//===----------------------------------------------------------------------===//

namespace {

/// The one spelling of each verdict and obligation status, indexed by
/// enumerator.
constexpr const char *VerdictNames[] = {"sound", "unsound", "unproven"};
constexpr const char *StatusNames[] = {"proven", "failed", "unknown"};

template <typename Enum, size_t N>
std::optional<Enum> parseName(const char *const (&Names)[N],
                              std::string_view Name) {
  for (size_t I = 0; I < N; ++I)
    if (Name == Names[I])
      return static_cast<Enum>(I);
  return std::nullopt;
}

} // namespace

const char *CheckReport::verdictName(Verdict V) {
  return VerdictNames[static_cast<size_t>(V)];
}

std::optional<CheckReport::Verdict>
CheckReport::parseVerdict(std::string_view Name) {
  return parseName<Verdict>(VerdictNames, Name);
}

const char *ObligationResult::statusName(Status S) {
  return StatusNames[static_cast<size_t>(S)];
}

std::optional<ObligationResult::Status>
ObligationResult::parseStatus(std::string_view Name) {
  return parseName<Status>(StatusNames, Name);
}

std::string CheckReport::str() const {
  std::ostringstream Out;
  Out << Name << ": ";
  switch (V) {
  case Verdict::V_Sound:
    Out << "SOUND";
    break;
  case Verdict::V_Unsound:
    Out << "UNSOUND";
    break;
  case Verdict::V_Unproven:
    Out << "NOT PROVEN [" << support::errorKindName(Degradation) << "]";
    break;
  }
  if (CacheHit)
    Out << " (cached)";
  Out << " (";
  for (size_t I = 0; I < Obligations.size(); ++I) {
    if (I)
      Out << ", ";
    const ObligationResult &R = Obligations[I];
    Out << R.Name << "=";
    switch (R.St) {
    case ObligationResult::Status::OS_Proven:
      Out << "ok";
      break;
    case ObligationResult::Status::OS_Failed:
      Out << "FAIL";
      break;
    case ObligationResult::Status::OS_Unknown:
      Out << (R.Err.Kind == ErrorKind::EK_ProverTimeout ? "TIMEOUT"
              : R.Err.Kind == ErrorKind::EK_ProverResourceOut
                  ? "RESOURCE"
                  : "UNKNOWN");
      break;
    }
  }
  Out << ")";
  if (!AssumedAnalyses.empty()) {
    Out << " assuming sound:";
    for (const std::string &A : AssumedAnalyses)
      Out << " " << A;
  }
  return Out.str();
}

namespace {

/// Progress of a statement independent of its index: "the statement can
/// execute from this state".
z3::expr stepDefinedOnly(Encoder &Enc, const ZState &S, const z3::expr &St,
                         const std::string &Prefix) {
  return Enc.encodeStep(S, St, Prefix).Defined;
}

/// The statement-kind case split. Obligations over an arbitrary region
/// statement are checked once per kind with a statement of that shape
/// (fresh fields). This mirrors how the paper's hand proofs proceed, lets
/// Z3 discharge each case without a top-level datatype split, and makes
/// failures self-localizing ("F2[assign] failed").
const char *StmtKindTags[] = {"decl", "skip",   "assign", "new",
                              "call", "branch", "return"};

/// The result recorded for obligations skipped because the check's total
/// wall-clock budget ran out before they were attempted.
ObligationResult budgetExhausted(const std::string &Name) {
  ObligationResult R;
  R.Name = Name;
  R.St = ObligationResult::Status::OS_Unknown;
  R.Err = support::Error(ErrorKind::EK_ProverTimeout,
                         "total budget exhausted before this obligation");
  return R;
}

/// Derives the three-valued verdict and the degradation kind from the
/// per-obligation results.
void finalizeVerdict(CheckReport &Report) {
  bool AnyFailed = false;
  ErrorKind Deg = ErrorKind::EK_None;
  for (const ObligationResult &R : Report.Obligations) {
    if (R.St == ObligationResult::Status::OS_Failed)
      AnyFailed = true;
    else if (R.St == ObligationResult::Status::OS_Unknown &&
             Deg == ErrorKind::EK_None)
      Deg = R.Err.Kind == ErrorKind::EK_None ? ErrorKind::EK_ProverUnknown
                                             : R.Err.Kind;
  }
  Report.Degradation = Deg;
  if (AnyFailed)
    Report.V = CheckReport::Verdict::V_Unsound;
  else if (Deg != ErrorKind::EK_None || Report.Obligations.empty())
    Report.V = CheckReport::Verdict::V_Unproven;
  else
    Report.V = CheckReport::Verdict::V_Sound;
  Report.Sound = Report.V == CheckReport::Verdict::V_Sound;
}

//===----------------------------------------------------------------------===//
// Fingerprinting (verdict cache keys).
//===----------------------------------------------------------------------===//

/// Folds the bytes of \p S into \p H, then a 0x1f byte that ends the
/// field. Definitions are fingerprinted through their printed forms — the
/// printers are total over the formula/witness/IR languages, so two
/// definitions collide only if they are structurally identical (or on a
/// genuine 64-bit hash collision, which at a dozen optimizations is
/// negligible).
void hashStr(uint64_t &H, std::string_view S) {
  H = support::fnv1a(0x1f, support::fnv1a(S, H));
}

void hashLabelDefs(uint64_t &H, const std::vector<LabelDef> &Defs) {
  for (const LabelDef &D : Defs) {
    hashStr(H, D.Name);
    for (const auto &Param : D.Params) {
      hashStr(H, Param.first);
      hashStr(H, std::string(1, static_cast<char>(
                                    'A' + static_cast<int>(Param.second))));
    }
    hashStr(H, D.Body ? D.Body->str() : "<null>");
  }
}

void hashGuardWitness(uint64_t &H, const Guard &G, const WitnessPtr &W) {
  hashStr(H, G.Psi1 ? G.Psi1->str() : "<null>");
  hashStr(H, G.Psi2 ? G.Psi2->str() : "<null>");
  hashStr(H, W ? W->str() : "<null>");
}

void hashAnalysisDef(uint64_t &H, const PureAnalysis &A) {
  hashStr(H, A.Name);
  hashStr(H, A.LabelName);
  for (const Term &T : A.LabelArgs)
    hashStr(H, toString(T));
  hashGuardWitness(H, A.G, A.W);
  hashLabelDefs(H, A.Labels);
}

z3::expr makeStmtOfKind(Encoder &Enc, const std::string &Tag) {
  if (Tag == "decl")
    return Enc.SDecl(Enc.freshVar("kd"));
  if (Tag == "skip")
    return Enc.SSkip();
  if (Tag == "assign")
    return Enc.SAssign(Enc.freshLhs("kl"), Enc.freshExpr("kr"));
  if (Tag == "new")
    return Enc.SNew(Enc.freshVar("kn"));
  if (Tag == "call")
    return Enc.SCall(Enc.freshVar("kt"), Enc.freshProc("kp"),
                     Enc.freshBase("ka"));
  if (Tag == "branch")
    return Enc.SBranch(Enc.freshBase("kb"), Enc.freshInt("ki"),
                       Enc.freshInt("kj"));
  return Enc.SReturn(Enc.freshVar("kv"));
}

//===----------------------------------------------------------------------===//
// Serialization helpers.
//===----------------------------------------------------------------------===//

std::string escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\r')
      Out += "\\r";
    else
      Out += C;
  }
  return Out;
}

std::string unescapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    char N = S[++I];
    Out += N == 'n' ? '\n' : N == 'r' ? '\r' : N;
  }
  return Out;
}

/// Checks that \p Text starts with the line \p Header, then hands every
/// further nonempty `<key> <value>` line to \p Field — tolerating the
/// one-space indent of an obligation block's fields. False when the
/// header is wrong or \p Field rejects a line.
bool readFields(const std::string &Text, std::string_view Header,
                const std::function<bool(const std::string &Key,
                                         const std::string &Val)> &Field) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != Header)
    return false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.front() == ' ')
      Line.erase(Line.begin());
    size_t Sp = Line.find(' ');
    std::string Key = Line.substr(0, Sp);
    std::string Val = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    if (!Field(Key, Val))
      return false;
  }
  return true;
}

/// Writes \p R as an obligation block — the one codec of disk entries and
/// worker frames: an `obligation <name>` line, then one indented field per
/// line. \p Timed adds the wall time, which worker frames carry back to
/// the parent and disk entries leave out (equal verdicts, equal bytes).
void writeObligation(std::ostream &Out, const ObligationResult &R,
                     bool Timed) {
  Out << "obligation " << escapeLine(R.Name) << "\n";
  Out << " status " << ObligationResult::statusName(R.St) << "\n";
  Out << " errkind " << support::errorKindName(R.Err.Kind) << "\n";
  if (!R.Err.Message.empty())
    Out << " errmsg " << escapeLine(R.Err.Message) << "\n";
  if (Timed)
    Out << " seconds " << R.Seconds << "\n";
  Out << " attempts " << R.Attempts << "\n";
  Out << " rlimit " << R.RlimitSpent << "\n";
  if (!R.Counterexample.empty())
    Out << " cex " << escapeLine(R.Counterexample) << "\n";
}

/// Reads one line of obligation blocks into \p Obs: `obligation` opens a
/// result, every other key fills the last one. False on an unknown key
/// (`seconds` is known only when \p Timed), a bad status, or a field
/// outside any obligation.
bool readObligationField(const std::string &Key, const std::string &Val,
                         std::vector<ObligationResult> &Obs, bool Timed) {
  if (Key == "obligation") {
    Obs.emplace_back();
    Obs.back().Name = unescapeLine(Val);
    return true;
  }
  if (Obs.empty())
    return false;
  ObligationResult &R = Obs.back();
  if (Key == "status") {
    std::optional<ObligationResult::Status> St =
        ObligationResult::parseStatus(Val);
    if (!St)
      return false;
    R.St = *St;
  } else if (Key == "errkind") {
    R.Err.Kind = support::errorKindFromName(Val);
  } else if (Key == "errmsg") {
    R.Err.Message = unescapeLine(Val);
  } else if (Key == "seconds" && Timed) {
    R.Seconds = std::strtod(Val.c_str(), nullptr);
  } else if (Key == "attempts") {
    R.Attempts =
        static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
  } else if (Key == "rlimit") {
    R.RlimitSpent = std::strtoull(Val.c_str(), nullptr, 10);
  } else if (Key == "cex") {
    R.Counterexample = unescapeLine(Val);
  } else {
    return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cached-verdict serialization (the disk tier's value format).
//===----------------------------------------------------------------------===//

std::string checker::serializeCheckReport(const CheckReport &R) {
  std::ostringstream Out;
  Out << "report 2\n";
  Out << "name " << escapeLine(R.Name) << "\n";
  Out << "verdict " << CheckReport::verdictName(R.V) << "\n";
  Out << "degradation " << support::errorKindName(R.Degradation) << "\n";
  for (const std::string &A : R.AssumedAnalyses)
    Out << "assumed " << escapeLine(A) << "\n";
  for (const ObligationResult &Ob : R.Obligations)
    writeObligation(Out, Ob, /*Timed=*/false);
  return Out.str();
}

std::optional<CheckReport>
checker::deserializeCheckReport(const std::string &Text) {
  CheckReport R;
  bool SawName = false, SawVerdict = false;
  bool Ok = readFields(Text, "report 2", [&](const std::string &Key,
                                             const std::string &Val) {
    if (Key == "name") {
      R.Name = unescapeLine(Val);
      SawName = true;
    } else if (Key == "verdict") {
      std::optional<CheckReport::Verdict> V = CheckReport::parseVerdict(Val);
      if (!V)
        return false;
      R.V = *V;
      SawVerdict = true;
    } else if (Key == "degradation") {
      R.Degradation = support::errorKindFromName(Val);
    } else if (Key == "assumed") {
      R.AssumedAnalyses.push_back(unescapeLine(Val));
    } else {
      // An obligation block; an unknown field makes the entry a miss.
      return readObligationField(Key, Val, R.Obligations, /*Timed=*/false);
    }
    return true;
  });
  if (!Ok || !SawName || !SawVerdict)
    return std::nullopt;
  R.Sound = R.V == CheckReport::Verdict::V_Sound;
  return R;
}

//===----------------------------------------------------------------------===//
// Obligation-result serialization (the worker pool's response frames).
//===----------------------------------------------------------------------===//

std::string checker::serializeObligationResult(const ObligationResult &R) {
  std::ostringstream Out;
  Out << "obresult 2\n";
  writeObligation(Out, R, /*Timed=*/true);
  return Out.str();
}

std::optional<ObligationResult>
checker::deserializeObligationResult(const std::string &Text) {
  std::vector<ObligationResult> Obs;
  bool SawStatus = false;
  bool Ok = readFields(Text, "obresult 2", [&](const std::string &Key,
                                               const std::string &Val) {
    SawStatus |= Key == "status";
    return readObligationField(Key, Val, Obs, /*Timed=*/true);
  });
  // A worker's answer must state its status; a disk entry's may not.
  if (!Ok || Obs.size() != 1 || !SawStatus)
    return std::nullopt; // the frame is not trusted
  return std::move(Obs.front());
}

//===----------------------------------------------------------------------===//
// Fingerprints and the verdict store.
//===----------------------------------------------------------------------===//

SoundnessChecker::SoundnessChecker(const LabelRegistry &Registry,
                                   std::vector<PureAnalysis> Analyses)
    : Registry(Registry), Analyses(std::move(Analyses)),
      Store(std::make_shared<VerdictStore>()) {
  auto All = std::make_shared<AnalysisTable>();
  for (const PureAnalysis &A : this->Analyses)
    (*All)[A.LabelName] = &A;
  AllLabels = std::move(All);
}

uint64_t
SoundnessChecker::fingerprintOptimization(const Optimization &O) const {
  uint64_t H = support::Fnv1aBasis;
  hashStr(H, "optimization");
  hashStr(H, O.Name);
  hashStr(H, O.Pat.Dir == Direction::D_Forward ? "fwd" : "bwd");
  hashStr(H, ir::toString(O.Pat.From));
  hashStr(H, ir::toString(O.Pat.To));
  hashGuardWitness(H, O.Pat.G, O.Pat.W);
  hashLabelDefs(H, O.Labels);
  // Obligations also depend on every registered predicate and on the
  // analysis witnesses, so fold the whole context in.
  hashLabelDefs(H, Registry.predicates());
  for (const PureAnalysis &A : Analyses)
    hashAnalysisDef(H, A);
  return H;
}

uint64_t SoundnessChecker::fingerprintAnalysis(const PureAnalysis &A) const {
  uint64_t H = support::Fnv1aBasis;
  hashStr(H, "analysis");
  hashAnalysisDef(H, A);
  hashLabelDefs(H, Registry.predicates());
  for (const PureAnalysis &Other : Analyses)
    hashAnalysisDef(H, Other);
  return H;
}

bool SoundnessChecker::setCacheDir(const std::string &Dir) {
  return Store->open(Dir);
}

void SoundnessChecker::setSharedCache(std::shared_ptr<VerdictStore> S) {
  Store = S ? std::move(S) : std::make_shared<VerdictStore>();
}

const support::DiskCache &SoundnessChecker::diskCache() const {
  return Store->disk();
}

//===----------------------------------------------------------------------===//
// Lowering: optimizations and analyses to obligation sets.
//===----------------------------------------------------------------------===//

namespace {

using SplitBuild =
    std::function<z3::expr(ObligationBuilder &, const z3::expr &)>;

void addObligation(ObligationSet &Set, std::string Name,
                   std::function<z3::expr(ObligationBuilder &)> Build) {
  Set.Obligations.push_back({std::move(Name), std::move(Build)});
}

/// Obligations quantifying over an arbitrary region statement run once
/// per statement kind (see makeStmtOfKind).
void addSplitObligation(ObligationSet &Set, const std::string &Name,
                        const SplitBuild &Build) {
  for (const char *Tag : StmtKindTags) {
    std::string TagStr = Tag;
    addObligation(Set, Name + "[" + Tag + "]",
                  [Build, TagStr](ObligationBuilder &B) {
                    z3::expr St = makeStmtOfKind(B.Enc, TagStr);
                    return Build(B, St);
                  });
  }
}

/// F1 and F2 (§4.2) over guard \p G and witness \p W: the obligations of
/// a pure analysis, and the first two of a forward optimization. The
/// closures read the caller's definition, which outlives the check.
void addForwardWitnessObligations(ObligationSet &Set, const Guard *G,
                                  const WitnessPtr *W) {
  // F1: the enabling statement establishes the witness.
  addSplitObligation(
      Set, "F1", [G, W](ObligationBuilder &B, const z3::expr &St) {
        ZState Eta = B.Enc.freshState("eta");
        B.wfHyp(Eta);
        B.hyp(B.PE.formula(*G->Psi1, St, Eta, B.Env, B.Hyps));
        ZState Post = B.stepHyp(Eta, St, "p1");
        B.wfHyp(Post);
        return B.PE.witness(**W, &Post, nullptr, nullptr, B.Env);
      });

  // F2: innocuous statements preserve the witness.
  addSplitObligation(
      Set, "F2", [G, W](ObligationBuilder &B, const z3::expr &St) {
        ZState Eta = B.Enc.freshState("eta");
        B.wfHyp(Eta);
        B.hyp(B.PE.witness(**W, &Eta, nullptr, nullptr, B.Env));
        B.hyp(B.PE.formula(*G->Psi2, St, Eta, B.Env, B.Hyps));
        ZState Post = B.stepHyp(Eta, St, "p2");
        B.wfHyp(Post);
        return B.PE.witness(**W, &Post, nullptr, nullptr, B.Env);
      });
}

} // namespace

ObligationSet SoundnessChecker::lower(const Optimization &O,
                                      uint64_t Fingerprint) const {
  ObligationSet Set;
  Set.Name = O.Name;
  Set.Fingerprint = Fingerprint;
  Set.Cacheable = true;
  Set.Labels = AllLabels;

  // Record the analysis labels the guard mentions: the soundness
  // guarantee is conditional on those analyses (checked separately).
  std::vector<std::string> Read;
  for (const FormulaPtr &F : {O.Pat.G.Psi1, O.Pat.G.Psi2})
    if (F)
      collectAnalysisLabels(*F, Registry, Read);
  for (const std::string &Label : Read) {
    auto It = AllLabels->find(Label);
    std::string Dep =
        It != AllLabels->end() ? It->second->Name : Label + " (unknown)";
    if (std::find(Set.AssumedAnalyses.begin(), Set.AssumedAnalyses.end(),
                  Dep) == Set.AssumedAnalyses.end())
      Set.AssumedAnalyses.push_back(Dep);
  }

  // The closures capture this pointer: the definition lives in the
  // caller and must outlive the set's check.
  const TransformationPattern *Pat = &O.Pat;
  bool Forward = Pat->Dir == Direction::D_Forward;
  bool Insertion = Pat->From.is<SkipStmt>() && !Pat->To.is<SkipStmt>();

  if (Forward) {
    addForwardWitnessObligations(Set, &Pat->G, &Pat->W);

    // F3: under the witness, s' steps exactly like s (and cannot be
    // stuck when s is not — the footnote-6 progress side).
    addObligation(Set, "F3", [Pat](ObligationBuilder &B) {
      ZState Eta = B.Enc.freshState("eta");
      z3::expr StS = B.Enc.buildStmt(Pat->From, B.Env);
      z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
      B.wfHyp(Eta);
      B.hyp(B.PE.witness(*Pat->W, &Eta, nullptr, nullptr, B.Env));
      ZState Post = B.stepHyp(Eta, StS, "ps");
      ZStep StepT = B.Enc.encodeStep(Eta, StT, "pt");
      B.hypAll(StepT.Constraints);
      return StepT.Defined && B.Enc.stateEq(StepT.Post, Post);
    });
    return Set;
  }

  // B1: executing s and s' from a common state establishes the witness.
  addObligation(Set, "B1", [Pat](ObligationBuilder &B) {
    ZState Eta = B.Enc.freshState("eta");
    z3::expr StS = B.Enc.buildStmt(Pat->From, B.Env);
    z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
    B.wfHyp(Eta);
    ZState Old = B.stepHyp(Eta, StS, "old");
    ZState New = B.stepHyp(Eta, StT, "new");
    return B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env);
  });

  // B2: innocuous statements preserve the witness, and the transformed
  // trace can always step along (progress of the simulation).
  addSplitObligation(
      Set, "B2", [Pat](ObligationBuilder &B, const z3::expr &St) {
        ZState Old = B.Enc.freshState("old");
        ZState New = B.Enc.freshState("new");
        B.wfHyp(Old);
        B.wfHyp(New);
        B.hyp(B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env));
        B.hyp(B.PE.formula(*Pat->G.Psi2, St, Old, B.Env, B.Hyps));
        ZState OldPost = B.stepHyp(Old, St, "oldp");
        B.wfHyp(OldPost);
        ZStep NewStep = B.Enc.encodeStep(New, St, "newp");
        B.hypAll(NewStep.Constraints);
        return NewStep.Defined &&
               B.PE.witness(*Pat->W, nullptr, &OldPost, &NewStep.Post,
                            B.Env);
      });

  // B3: the enabling statement re-unifies the traces.
  addSplitObligation(
      Set, "B3", [Pat](ObligationBuilder &B, const z3::expr &St) {
        ZState Old = B.Enc.freshState("old");
        ZState New = B.Enc.freshState("new");
        B.wfHyp(Old);
        B.wfHyp(New);
        B.hyp(B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env));
        B.hyp(B.PE.formula(*Pat->G.Psi1, St, Old, B.Env, B.Hyps));
        ZState OldPost = B.stepHyp(Old, St, "oldp");
        ZStep NewStep = B.Enc.encodeStep(New, St, "newp");
        B.hypAll(NewStep.Constraints);
        return NewStep.Defined && B.Enc.stateEq(NewStep.Post, OldPost);
      });

  if (!Insertion) {
    // B4: s' cannot get stuck when s steps.
    addObligation(Set, "B4", [Pat](ObligationBuilder &B) {
      ZState Eta = B.Enc.freshState("eta");
      z3::expr StS = B.Enc.buildStmt(Pat->From, B.Env);
      z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
      B.wfHyp(Eta);
      B.hyp(stepDefinedOnly(B.Enc, Eta, StS, "ps"));
      return stepDefinedOnly(B.Enc, Eta, StT, "pt");
    });
  } else {
    // Insertions (s = skip) cannot establish progress locally; instead
    // the hand-proven meta-theorem walks the complete original trace: on
    // a returning run the enabler executes, so (I2) s' can step there,
    // and (I1) pushes that fact backwards through the region.
    addSplitObligation(
        Set, "I1", [Pat](ObligationBuilder &B, const z3::expr &St) {
          ZState Eta = B.Enc.freshState("eta");
          z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
          B.wfHyp(Eta);
          B.hyp(B.PE.formula(*Pat->G.Psi2, St, Eta, B.Env, B.Hyps));
          ZState Post = B.stepHyp(Eta, St, "p");
          B.wfHyp(Post);
          B.hyp(stepDefinedOnly(B.Enc, Post, StT, "pa"));
          return stepDefinedOnly(B.Enc, Eta, StT, "pb");
        });
    addSplitObligation(
        Set, "I2", [Pat](ObligationBuilder &B, const z3::expr &St) {
          ZState Eta = B.Enc.freshState("eta");
          z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
          B.wfHyp(Eta);
          B.hyp(B.PE.formula(*Pat->G.Psi1, St, Eta, B.Env, B.Hyps));
          B.hyp(stepDefinedOnly(B.Enc, Eta, St, "p"));
          return stepDefinedOnly(B.Enc, Eta, StT, "pt");
        });
  }

  // B5: a return enabler ends the procedure's activation with both traces
  // agreeing on the return value and on every location the caller could
  // observe (cells differing between the traces must be unreachable).
  // Catches escaped-local bugs.
  addObligation(Set, "B5", [Pat](ObligationBuilder &B) {
    ZState Old = B.Enc.freshState("old");
    ZState New = B.Enc.freshState("new");
    z3::expr St = B.Enc.SReturn(B.Enc.freshVar("rv"));
    B.wfHyp(Old);
    B.wfHyp(New);
    B.hyp(B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env));
    B.hyp(B.PE.formula(*Pat->G.Psi1, St, Old, B.Env, B.Hyps));

    z3::expr RetVar = B.Enc.SReturnVar(St);
    z3::expr OldDef = z3::select(Old.Scope, RetVar);
    z3::expr OldVal = z3::select(Old.Sto, z3::select(Old.Env, RetVar));
    z3::expr NewDef = z3::select(New.Scope, RetVar);
    z3::expr NewVal = z3::select(New.Sto, z3::select(New.Env, RetVar));

    z3::expr L = B.C.int_const("b5L");
    z3::expr StoresAgreeOrUnreachable = z3::forall(
        L, z3::implies(z3::select(Old.Sto, L) != z3::select(New.Sto, L),
                       B.Enc.notPointedToLoc(Old, L) &&
                           L != z3::select(Old.Env, RetVar)));
    return z3::implies(OldDef, NewDef && OldVal == NewVal &&
                                   Old.Alloc == New.Alloc &&
                                   StoresAgreeOrUnreachable);
  });
  return Set;
}

ObligationSet SoundnessChecker::lower(const PureAnalysis &A,
                                      uint64_t Fingerprint) const {
  ObligationSet Set;
  Set.Name = A.Name;
  Set.Fingerprint = Fingerprint;
  Set.Cacheable = true;
  auto Labels = std::make_shared<AnalysisTable>();
  for (const PureAnalysis &Other : Analyses)
    if (Other.Name != A.Name)
      (*Labels)[Other.LabelName] = &Other;
  Set.Labels = std::move(Labels);
  addForwardWitnessObligations(Set, &A.G, &A.W);
  return Set;
}

//===----------------------------------------------------------------------===//
// Checking: claim, discharge, settle.
//===----------------------------------------------------------------------===//

/// One set's stake in a check. Report.Obligations[I] receives the result
/// of Set->Obligations[I]; the set itself lives in the caller's vector.
struct SoundnessChecker::PreparedCheck {
  const ObligationSet *Set = nullptr;
  const AnalysisTable *Labels = nullptr; ///< The table the set builds on.
  /// The check's stake in the verdict store: empty when the set is not
  /// Cacheable, leading while this checker owes the store its verdict.
  VerdictStore::Claim Claim;
  bool Served = false; ///< The store answers the claim: nothing to prove.
  CheckReport Report;
  std::chrono::steady_clock::time_point Start;
};

SoundnessChecker::PreparedCheck
SoundnessChecker::prepare(const ObligationSet &Set) {
  PreparedCheck PC;
  PC.Set = &Set;
  PC.Labels = Set.Labels ? Set.Labels.get() : AllLabels.get();
  PC.Report.Name = Set.Name;
  if (Set.Cacheable) {
    PC.Claim = Store->claim(Set.Fingerprint);
    PC.Served = !PC.Claim.leads();
  }
  CacheHits += PC.Served;
  if (!PC.Served) {
    PC.Report.AssumedAnalyses = Set.AssumedAnalyses;
    PC.Report.Obligations.resize(Set.Obligations.size());
  }
  return PC;
}

CheckReport SoundnessChecker::checkOptimization(const Optimization &O) {
  return std::move(
      checkObligationSets({lower(O, fingerprintOptimization(O))}).front());
}

CheckReport SoundnessChecker::checkAnalysis(const PureAnalysis &A) {
  return std::move(
      checkObligationSets({lower(A, fingerprintAnalysis(A))}).front());
}

std::vector<CheckReport> SoundnessChecker::checkSuite(
    const std::vector<PureAnalysis> &SuiteAnalyses,
    const std::vector<Optimization> &SuiteOptimizations) {
  std::vector<ObligationSet> Sets;
  Sets.reserve(SuiteAnalyses.size() + SuiteOptimizations.size());
  for (const PureAnalysis &A : SuiteAnalyses)
    Sets.push_back(lower(A, fingerprintAnalysis(A)));
  for (const Optimization &O : SuiteOptimizations)
    Sets.push_back(lower(O, fingerprintOptimization(O)));
  return checkObligationSets(Sets);
}

std::vector<CheckReport> SoundnessChecker::checkObligationSets(
    const std::vector<ObligationSet> &Sets) {
  std::vector<PreparedCheck> Checks;
  Checks.reserve(Sets.size());
  for (const ObligationSet &Set : Sets)
    Checks.push_back(prepare(Set));

  support::TraceSpan SuiteSpan("checker", "checkSuite");
  if (SuiteSpan.enabled())
    SuiteSpan.arg("definitions", static_cast<uint64_t>(Checks.size()));
  try {
    discharge(Checks);
  } catch (...) {
    // Waiters on this checker's leads receive the exception, and the
    // keys are forgotten so the next claim proves afresh.
    std::exception_ptr E = std::current_exception();
    for (PreparedCheck &PC : Checks)
      if (PC.Claim.leads())
        Store->abandon(PC.Claim, E);
    throw;
  }

  // Settle this checker's leads before waiting on any claim it joined:
  // two checkers that each lead what the other joined both progress.
  for (PreparedCheck &PC : Checks) {
    if (PC.Served)
      continue;
    for (const ObligationResult &R : PC.Report.Obligations)
      PC.Report.TotalSeconds += R.Seconds;
    finalizeVerdict(PC.Report);
    if (PC.Claim.leads())
      Store->settle(PC.Claim, PC.Report);
  }

  // Reassemble reports in input order: collection order never depends on
  // which thread finished first.
  std::vector<CheckReport> Out;
  Out.reserve(Checks.size());
  for (PreparedCheck &PC : Checks) {
    if (PC.Served) {
      PC.Report = *PC.Claim.get();
      PC.Report.CacheHit = true;
      PC.Report.TotalSeconds = 0.0;
    }
    Out.push_back(std::move(PC.Report));
  }
  return Out;
}

namespace {

/// Finalizes one obligation's telemetry: outcome args on its span plus
/// the checker.* counters. All values are deterministic except the
/// prover_seconds histogram (wall time, humans-only).
void recordObligation(const ObligationResult &R, support::TraceSpan &Span) {
  const char *Verdict = ObligationResult::statusName(R.St);
  if (Span.enabled()) {
    Span.arg("verdict", std::string(Verdict));
    Span.arg("attempts", static_cast<uint64_t>(R.Attempts));
    Span.arg("rlimit", R.RlimitSpent);
  }
  if (support::Telemetry *T = support::Telemetry::active()) {
    T->Metrics.add("checker.obligations");
    T->Metrics.add(std::string("checker.obligations.") + Verdict);
    if (R.Attempts > 1)
      T->Metrics.add("checker.retries", R.Attempts - 1);
    if (R.RlimitSpent)
      T->Metrics.add("checker.rlimit_spent", R.RlimitSpent);
    T->Metrics.observe("checker.prover_seconds", R.Seconds);
  }
}

} // namespace

void SoundnessChecker::discharge(std::vector<PreparedCheck> &Checks) {
  // Pool threads do not inherit this thread's trace-ID TLS, so capture
  // the ambient request trace ID here and re-establish it inside every
  // job (and ship it across the worker fork).
  const uint64_t SuiteTraceId = support::TraceRecorder::currentTraceId();
  // Number every unserved obligation: job Flat[I] is (set, obligation),
  // and a set's obligations are contiguous from First[set].
  std::vector<std::pair<size_t, size_t>> Flat;
  std::vector<size_t> First(Checks.size());
  // The unit of fan-out is the set, longest first: a set's obligations
  // run in index order on one lane, in one world, so each obligation's
  // solver history is the earlier obligations of its own set whatever
  // the width, the isolation mode or the other sets.
  std::vector<size_t> Order;
  auto Now = std::chrono::steady_clock::now();
  for (size_t CI = 0; CI < Checks.size(); ++CI) {
    Checks[CI].Start = Now;
    if (Checks[CI].Served) {
      // A definition served from the verdict cache still shows up in the
      // trace (as an instant-ish span) so cached and fresh runs have
      // recognizably different span sets.
      support::TraceSpan Cached("checker", "check.cached");
      if (Cached.enabled())
        Cached.arg("def", Checks[CI].Report.Name);
      continue;
    }
    First[CI] = Flat.size();
    for (size_t OI = 0; OI < Checks[CI].Set->Obligations.size(); ++OI)
      Flat.emplace_back(CI, OI);
    Order.push_back(CI);
  }
  auto Size = [&](size_t CI) { return Checks[CI].Set->Obligations.size(); };
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Size(A) > Size(B); });

  // The world a lane proves its set in: built at the set's first
  // obligation (or after a retirement), freed before the next is built.
  struct World {
    size_t Set = SIZE_MAX;
    std::unique_ptr<ObligationBuilder> B;
  };
  // The discharge proper: reset the world's tables, build the query and
  // run the solver; retire the world unless the obligation was proven on
  // its first attempt. In-process mode runs it on the checker's threads
  // (under the job's fault scope); subprocess mode runs the *same
  // closure* inside a worker child, so the two modes cannot drift.
  auto Prove = [&](World &W, size_t Idx, int64_t Left) -> ObligationResult {
    auto [CI, OI] = Flat[Idx];
    const ObligationSpec &Spec = Checks[CI].Set->Obligations[OI];
    if (W.Set != CI) {
      W.B.reset();
      W.Set = CI;
    }
    if (!W.B) {
      support::TraceSpan Span("checker", "world");
      W.B = std::make_unique<ObligationBuilder>(Registry, *Checks[CI].Labels);
      W.B->prover();
      support::metricAdd("checker.worlds");
    }
    ObligationResult R;
    {
      W.B->reset();
      z3::expr Goal = Spec.Build(*W.B); // dies before its context
      R = W.B->check(Spec.Name, Goal, Policy, Left);
    }
    if (!W.B->reusable()) {
      W.B.reset();
      support::metricAdd("checker.worlds_retired");
    }
    return R;
  };
  // A worker child proves in its own copy of this world, which the
  // parent never touches: the parent sends a set's obligations in order
  // to one lane, and a respawned worker starts from an empty world.
  World ChildWorld;
  auto Discharge = [&](size_t Idx, int64_t Left) {
    return Prove(ChildWorld, Idx, Left);
  };

  // Out-of-process mode: fork one worker per lane *now*, before any job
  // fans onto the thread pool — its threads are idle (condvar wait), so
  // no lock can be mid-flight in the forked image. Later respawn forks
  // are safe for the same reason in a different guise: while the pool is
  // live no parent thread ever enters Z3 (only children do), so parent
  // threads hold nothing a child's solver run would need.
  std::unique_ptr<ProverWorkerPool> Workers;
  if (Policy.Isolation == WorkerIsolation::WI_Subprocess &&
      !Flat.empty()) {
    ProverWorkerPool::Config WC;
    WC.Workers = Pool ? Pool->jobs() : 1;
    WC.WallMs = Policy.WorkerWallMs
                    ? Policy.WorkerWallMs
                    : 2 * Policy.TimeoutMs + 30000;
    WC.RssMb = Policy.WorkerRssMb;
    WC.MaxRestarts = Policy.WorkerRestarts;
    Workers = std::make_unique<ProverWorkerPool>(WC, Discharge);
    if (!Workers->start()) {
      // Cannot fork at all (process/fd limits): an availability problem,
      // not a soundness one — degrade to in-process and keep going.
      support::metricAdd("worker.start_failed");
      Workers.reset();
    }
  }

  // Wall budget left for the obligation's set: -1 = unlimited, 0 =
  // exhausted (skip without dispatching).
  auto BudgetLeft = [this](const PreparedCheck &PC) -> int64_t {
    if (Policy.BudgetMs == 0)
      return -1;
    int64_t Elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - PC.Start)
            .count();
    return std::max<int64_t>(
        0, static_cast<int64_t>(Policy.BudgetMs) - Elapsed);
  };

  // The one per-obligation runner: trace span, budget check, dispatch
  // (in-process, or on the job's lane's worker), record. The span carries
  // deterministic args only (verdict, attempts, rlimit — wall time lives
  // in the span duration, which equivalence tests ignore).
  auto Run = [&](size_t Idx, World &W) {
    auto [CI, OI] = Flat[Idx];
    PreparedCheck &PC = Checks[CI];
    const std::string &Name = PC.Set->Obligations[OI].Name;
    ObligationResult &Result = PC.Report.Obligations[OI];
    // The job's stable fingerprint (set fingerprint ⊕ obligation name ⊕
    // salt) keys its fault decisions, so `--jobs 8` fires exactly the
    // faults `--jobs 1` does regardless of scheduling.
    uint64_t FaultKey = PC.Set->Fingerprint;
    hashStr(FaultKey, Name);
    FaultKey ^= FaultKeySalt;
    support::TraceIdScope IdScope(SuiteTraceId);
    support::TraceSpan Span("checker", "obligation");
    if (Span.enabled()) {
      Span.arg("def", PC.Report.Name);
      Span.arg("ob", Name);
    }
    int64_t Left = BudgetLeft(PC);
    if (Left == 0) {
      Result = budgetExhausted(Name);
    } else if (!Workers) {
      support::ScopedFaultKey JobKey(FaultKey);
      Result = Prove(W, Idx, Left);
    } else {
      // The worker child opens the fault scope (per request, so retried
      // obligations redraw the same decisions); the parent supervises.
      // An obligation whose workers keep dying comes back
      // unknown(EK_WorkerCrash): quarantined, never rerun in-process.
      unsigned Lane = Pool ? support::ThreadPool::currentLane() : 0;
      Result = Workers->run(Lane, Idx, Name, FaultKey, Left, SuiteTraceId);
    }
    recordObligation(Result, Span);
  };
  // One set on one lane, its obligations in index order.
  auto RunSet = [&](size_t K) {
    size_t CI = Order[K];
    World W;
    for (size_t OI = 0; OI < Checks[CI].Set->Obligations.size(); ++OI)
      Run(First[CI] + OI, W);
  };

  // Without a pool, sets run in dispatch order on this thread (lane 0) —
  // exactly the sequential checker, as on a width-1 pool.
  if (Pool)
    Pool->parallelFor(Order.size(), RunSet);
  else
    for (size_t K = 0; K < Order.size(); ++K)
      RunSet(K);

  if (Workers)
    Workers->stop();
}
