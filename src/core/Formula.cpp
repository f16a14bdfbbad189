//===- Formula.cpp --------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Formula.h"

#include "core/Match.h"
#include "ir/Interp.h"
#include "ir/Printer.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace cobalt;
using namespace cobalt::ir;

//===----------------------------------------------------------------------===//
// Terms.
//===----------------------------------------------------------------------===//

std::string cobalt::toString(const Term &T) {
  if (std::holds_alternative<CurrStmtTerm>(T))
    return "currStmt";
  if (const auto *E = std::get_if<Expr>(&T))
    return ir::toString(*E);
  return ir::toString(std::get<Stmt>(T));
}

static void addMeta(const std::string &Name, MetaKind K,
                    std::vector<std::pair<std::string, MetaKind>> &Out) {
  if (Name.empty())
    return; // wildcard
  for (const auto &[N, Kind] : Out)
    if (N == Name) {
      assert(Kind == K && "pattern variable used at two different kinds");
      return;
    }
  Out.emplace_back(Name, K);
}

static void collectMetaKindsBase(
    const BaseExpr &B, std::vector<std::pair<std::string, MetaKind>> &Out) {
  if (isVar(B)) {
    if (asVar(B).IsMeta)
      addMeta(asVar(B).Name, MetaKind::MK_Var, Out);
  } else if (asConst(B).IsMeta) {
    addMeta(asConst(B).MetaName, MetaKind::MK_Const, Out);
  }
}

void cobalt::collectMetaKinds(
    const Expr &E, std::vector<std::pair<std::string, MetaKind>> &Out) {
  if (const auto *X = std::get_if<Var>(&E.V)) {
    if (X->IsMeta)
      addMeta(X->Name, MetaKind::MK_Var, Out);
  } else if (const auto *C = std::get_if<ConstVal>(&E.V)) {
    if (C->IsMeta)
      addMeta(C->MetaName, MetaKind::MK_Const, Out);
  } else if (const auto *D = std::get_if<DerefExpr>(&E.V)) {
    if (D->Ptr.IsMeta)
      addMeta(D->Ptr.Name, MetaKind::MK_Var, Out);
  } else if (const auto *A = std::get_if<AddrOfExpr>(&E.V)) {
    if (A->Target.IsMeta)
      addMeta(A->Target.Name, MetaKind::MK_Var, Out);
  } else if (const auto *O = std::get_if<OpExpr>(&E.V)) {
    for (const BaseExpr &B : O->Args)
      collectMetaKindsBase(B, Out);
  } else if (const auto *M = std::get_if<MetaExpr>(&E.V)) {
    if (!M->isWildcard())
      addMeta(M->Name, MetaKind::MK_Expr, Out);
  }
}

void cobalt::collectMetaKinds(
    const Stmt &S, std::vector<std::pair<std::string, MetaKind>> &Out) {
  if (const auto *D = std::get_if<DeclStmt>(&S.V)) {
    if (D->Name.IsMeta)
      addMeta(D->Name.Name, MetaKind::MK_Var, Out);
  } else if (const auto *A = std::get_if<AssignStmt>(&S.V)) {
    const Var &L = lhsVar(A->Target);
    if (L.IsMeta)
      addMeta(L.Name, MetaKind::MK_Var, Out);
    collectMetaKinds(A->Value, Out);
  } else if (const auto *N = std::get_if<NewStmt>(&S.V)) {
    if (N->Target.IsMeta)
      addMeta(N->Target.Name, MetaKind::MK_Var, Out);
  } else if (const auto *C = std::get_if<CallStmt>(&S.V)) {
    if (C->Target.IsMeta)
      addMeta(C->Target.Name, MetaKind::MK_Var, Out);
    if (C->Callee.IsMeta)
      addMeta(C->Callee.Name, MetaKind::MK_Proc, Out);
    collectMetaKindsBase(C->Arg, Out);
  } else if (const auto *B = std::get_if<BranchStmt>(&S.V)) {
    collectMetaKindsBase(B->Cond, Out);
    if (B->Then.IsMeta)
      addMeta(B->Then.MetaName, MetaKind::MK_Index, Out);
    if (B->Else.IsMeta)
      addMeta(B->Else.MetaName, MetaKind::MK_Index, Out);
  } else if (const auto *R = std::get_if<ReturnStmt>(&S.V)) {
    if (R->Value.IsMeta)
      addMeta(R->Value.Name, MetaKind::MK_Var, Out);
  }
}

void cobalt::collectMetaKinds(
    const Term &T, std::vector<std::pair<std::string, MetaKind>> &Out) {
  if (const auto *E = std::get_if<Expr>(&T))
    collectMetaKinds(*E, Out);
  else if (const auto *S = std::get_if<Stmt>(&T))
    collectMetaKinds(*S, Out);
}

//===----------------------------------------------------------------------===//
// Formula construction and printing.
//===----------------------------------------------------------------------===//

static FormulaPtr make(Formula F) {
  return std::make_shared<const Formula>(std::move(F));
}

FormulaPtr cobalt::fTrue() {
  Formula F;
  F.K = Formula::Kind::FK_True;
  return make(std::move(F));
}

FormulaPtr cobalt::fFalse() {
  Formula F;
  F.K = Formula::Kind::FK_False;
  return make(std::move(F));
}

FormulaPtr cobalt::fNot(FormulaPtr Inner) {
  Formula F;
  F.K = Formula::Kind::FK_Not;
  F.Kids.push_back(std::move(Inner));
  return make(std::move(F));
}

FormulaPtr cobalt::fAnd(FormulaPtr A, FormulaPtr B) {
  Formula F;
  F.K = Formula::Kind::FK_And;
  F.Kids.push_back(std::move(A));
  F.Kids.push_back(std::move(B));
  return make(std::move(F));
}

FormulaPtr cobalt::fOr(FormulaPtr A, FormulaPtr B) {
  Formula F;
  F.K = Formula::Kind::FK_Or;
  F.Kids.push_back(std::move(A));
  F.Kids.push_back(std::move(B));
  return make(std::move(F));
}

FormulaPtr cobalt::fLabel(std::string Name, std::vector<Term> Args) {
  Formula F;
  F.K = Formula::Kind::FK_Label;
  F.LabelName = std::move(Name);
  F.Args = std::move(Args);
  return make(std::move(F));
}

FormulaPtr cobalt::fEq(Term A, Term B) {
  Formula F;
  F.K = Formula::Kind::FK_Eq;
  F.LhsT = std::move(A);
  F.RhsT = std::move(B);
  return make(std::move(F));
}

FormulaPtr cobalt::fCase(Term Scrutinee, std::vector<CaseArm> Arms,
                         FormulaPtr ElseBody) {
  Formula F;
  F.K = Formula::Kind::FK_Case;
  F.LhsT = std::move(Scrutinee);
  F.Arms = std::move(Arms);
  F.ElseBody = std::move(ElseBody);
  return make(std::move(F));
}

std::string Formula::str() const {
  switch (K) {
  case Kind::FK_True:
    return "true";
  case Kind::FK_False:
    return "false";
  case Kind::FK_Not:
    return "!(" + Kids[0]->str() + ")";
  case Kind::FK_And:
    return "(" + Kids[0]->str() + " && " + Kids[1]->str() + ")";
  case Kind::FK_Or:
    return "(" + Kids[0]->str() + " || " + Kids[1]->str() + ")";
  case Kind::FK_Label: {
    std::string Out = LabelName + "(";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += toString(Args[I]);
    }
    return Out + ")";
  }
  case Kind::FK_Eq:
    return toString(LhsT) + " = " + toString(RhsT);
  case Kind::FK_Case: {
    std::string Out = "case " + toString(LhsT) + " of ";
    for (const CaseArm &A : Arms)
      Out += toString(A.Pattern) + " => " + A.Body->str() + " | ";
    return Out + "else => " + ElseBody->str() + " endcase";
  }
  }
  return "<invalid>";
}

std::string GroundLabel::str() const {
  std::string Out = Name + "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I].str();
  }
  return Out + ")";
}

//===----------------------------------------------------------------------===//
// Free pattern variables.
//===----------------------------------------------------------------------===//

static void collectFreeMetasInto(
    const Formula &F, std::vector<std::pair<std::string, MetaKind>> &Out,
    std::vector<std::string> &BoundStack) {
  auto AddUnlessBound = [&](const std::string &Name, MetaKind K) {
    if (std::find(BoundStack.begin(), BoundStack.end(), Name) ==
        BoundStack.end())
      addMeta(Name, K, Out);
  };
  auto CollectTerm = [&](const Term &T) {
    std::vector<std::pair<std::string, MetaKind>> Tmp;
    collectMetaKinds(T, Tmp);
    for (const auto &[N, K] : Tmp)
      AddUnlessBound(N, K);
  };

  switch (F.K) {
  case Formula::Kind::FK_True:
  case Formula::Kind::FK_False:
    return;
  case Formula::Kind::FK_Not:
    collectFreeMetasInto(*F.Kids[0], Out, BoundStack);
    return;
  case Formula::Kind::FK_And:
  case Formula::Kind::FK_Or:
    for (const FormulaPtr &Kid : F.Kids)
      collectFreeMetasInto(*Kid, Out, BoundStack);
    return;
  case Formula::Kind::FK_Label:
    for (const Term &T : F.Args)
      CollectTerm(T);
    return;
  case Formula::Kind::FK_Eq:
    CollectTerm(F.LhsT);
    CollectTerm(F.RhsT);
    return;
  case Formula::Kind::FK_Case: {
    CollectTerm(F.LhsT);
    for (const CaseArm &Arm : F.Arms) {
      // Variables introduced by the arm pattern are bound in the body.
      std::vector<std::pair<std::string, MetaKind>> ArmMetas;
      collectMetaKinds(Arm.Pattern, ArmMetas);
      size_t Mark = BoundStack.size();
      for (const auto &[N, K] : ArmMetas) {
        (void)K;
        BoundStack.push_back(N);
      }
      collectFreeMetasInto(*Arm.Body, Out, BoundStack);
      BoundStack.resize(Mark);
    }
    if (F.ElseBody)
      collectFreeMetasInto(*F.ElseBody, Out, BoundStack);
    return;
  }
  }
}

void cobalt::collectFreeMetas(
    const Formula &F, std::vector<std::pair<std::string, MetaKind>> &Out) {
  std::vector<std::string> BoundStack;
  collectFreeMetasInto(F, Out, BoundStack);
}

void cobalt::collectAnalysisLabels(const Formula &F,
                                   const LabelRegistry &Registry,
                                   std::vector<std::string> &Out) {
  if (F.K == Formula::Kind::FK_Label) {
    if (Registry.isAnalysisLabel(F.LabelName)) {
      if (std::find(Out.begin(), Out.end(), F.LabelName) == Out.end())
        Out.push_back(F.LabelName);
    } else if (const LabelDef *Def = Registry.findPredicate(F.LabelName)) {
      collectAnalysisLabels(*Def->Body, Registry, Out);
    }
    return;
  }
  for (const FormulaPtr &Kid : F.Kids)
    collectAnalysisLabels(*Kid, Registry, Out);
  for (const CaseArm &Arm : F.Arms)
    collectAnalysisLabels(*Arm.Body, Registry, Out);
  if (F.ElseBody)
    collectAnalysisLabels(*F.ElseBody, Registry, Out);
}

//===----------------------------------------------------------------------===//
// Label registry.
//===----------------------------------------------------------------------===//

bool LabelRegistry::isBuiltin(const std::string &Name) {
  return Name == "stmt" || Name == "computes";
}

bool LabelRegistry::define(LabelDef Def) {
  if (isBuiltin(Def.Name) || findPredicate(Def.Name) ||
      isAnalysisLabel(Def.Name))
    return false;
  Defs.push_back(std::move(Def));
  return true;
}

void LabelRegistry::declareAnalysisLabel(const std::string &Name) {
  assert(!isBuiltin(Name) && !findPredicate(Name) &&
         "analysis label shadows an existing label");
  AnalysisLabels.insert(Name);
}

const LabelDef *LabelRegistry::findPredicate(const std::string &Name) const {
  for (const LabelDef &D : Defs)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

bool LabelRegistry::isAnalysisLabel(const std::string &Name) const {
  return AnalysisLabels.count(Name) != 0;
}

//===----------------------------------------------------------------------===//
// Universe.
//===----------------------------------------------------------------------===//

namespace {
struct UniverseBuilder {
  Universe U;
  std::set<std::string> Vars;
  std::set<int64_t> Consts;
  std::set<std::string> ExprKeys;
  std::set<std::string> Procs;

  void addVar(const Var &X) {
    if (!X.IsMeta && Vars.insert(X.Name).second)
      U.Vars.push_back(X.Name);
  }
  void addConst(const ConstVal &C) {
    if (!C.IsMeta && Consts.insert(C.Value).second)
      U.Consts.push_back(C.Value);
  }
  void addBase(const BaseExpr &B) {
    if (isVar(B))
      addVar(asVar(B));
    else
      addConst(asConst(B));
  }
  void addExpr(const Expr &E) {
    if (!isGround(E))
      return;
    if (ExprKeys.insert(ir::toString(E)).second)
      U.Exprs.push_back(E);
    if (const auto *X = std::get_if<Var>(&E.V))
      addVar(*X);
    else if (const auto *C = std::get_if<ConstVal>(&E.V))
      addConst(*C);
    else if (const auto *D = std::get_if<DerefExpr>(&E.V))
      addVar(D->Ptr);
    else if (const auto *A = std::get_if<AddrOfExpr>(&E.V))
      addVar(A->Target);
    else if (const auto *O = std::get_if<OpExpr>(&E.V))
      for (const BaseExpr &B : O->Args)
        addBase(B);
  }
};
} // namespace

Universe cobalt::buildUniverse(const Procedure &P) {
  UniverseBuilder B;
  B.addVar(Var::concrete(P.Param));
  for (int I = 0; I < P.size(); ++I) {
    const Stmt &S = P.stmtAt(I);
    B.U.Indices.push_back(I);
    if (const auto *D = std::get_if<DeclStmt>(&S.V)) {
      B.addVar(D->Name);
    } else if (const auto *A = std::get_if<AssignStmt>(&S.V)) {
      B.addVar(lhsVar(A->Target));
      B.addExpr(A->Value);
    } else if (const auto *N = std::get_if<NewStmt>(&S.V)) {
      B.addVar(N->Target);
    } else if (const auto *C = std::get_if<CallStmt>(&S.V)) {
      B.addVar(C->Target);
      B.addBase(C->Arg);
      if (!C->Callee.IsMeta && B.Procs.insert(C->Callee.Name).second)
        B.U.Procs.push_back(C->Callee.Name);
    } else if (const auto *Br = std::get_if<BranchStmt>(&S.V)) {
      B.addBase(Br->Cond);
    } else if (const auto *R = std::get_if<ReturnStmt>(&S.V)) {
      B.addVar(R->Value);
    }
  }
  return std::move(B.U);
}

//===----------------------------------------------------------------------===//
// Term evaluation.
//===----------------------------------------------------------------------===//

std::optional<Term> cobalt::evalTerm(const Term &T, const NodeContext &Ctx,
                                     const Substitution &Theta) {
  if (std::holds_alternative<CurrStmtTerm>(T))
    return Term(Ctx.stmt());
  if (const auto *E = std::get_if<Expr>(&T)) {
    auto R = applySubstExpr(*E, Theta);
    if (!R)
      return std::nullopt;
    return Term(std::move(*R));
  }
  auto R = applySubst(std::get<Stmt>(T), Theta);
  if (!R)
    return std::nullopt;
  return Term(std::move(*R));
}

std::optional<Binding> cobalt::termToBinding(const Term &T,
                                             const NodeContext &Ctx,
                                             const Substitution &Theta) {
  auto G = evalTerm(T, Ctx, Theta);
  if (!G)
    return std::nullopt;
  const auto *E = std::get_if<Expr>(&*G);
  if (!E)
    return std::nullopt; // statements are not label-argument values
  if (const auto *X = std::get_if<Var>(&E->V))
    return Binding::var(X->Name);
  if (const auto *C = std::get_if<ConstVal>(&E->V))
    return Binding::constant(C->Value);
  return Binding::expr(*E);
}

//===----------------------------------------------------------------------===//
// The computes(E, C) builtin: constant folding of ground expressions.
//===----------------------------------------------------------------------===//

/// If \p E is a ground expression over constant operands, returns its
/// value: a plain constant, or an operator applied to constants. Variables,
/// loads, and address-of have no statically-known value.
static std::optional<int64_t> foldGroundExpr(const Expr &E) {
  if (const auto *C = std::get_if<ConstVal>(&E.V))
    return C->Value;
  const auto *O = std::get_if<OpExpr>(&E.V);
  if (!O)
    return std::nullopt;
  std::vector<int64_t> Args;
  for (const BaseExpr &B : O->Args) {
    if (!isConst(B) || asConst(B).IsMeta)
      return std::nullopt;
    Args.push_back(asConst(B).Value);
  }
  return evalConstOp(O->Op, Args);
}

//===----------------------------------------------------------------------===//
// Complete evaluation (ι ⊨θ ψ).
//===----------------------------------------------------------------------===//

/// Checks that every named pattern variable in \p S is bound by Theta;
/// stmt(S) is only meaningful under a θ covering S (wildcards excepted).
static bool allMetasBound(const Stmt &S, const Substitution &Theta) {
  std::vector<std::string> Names;
  collectMetaNames(S, Names);
  return std::all_of(Names.begin(), Names.end(), [&](const std::string &N) {
    return Theta.isBound(N);
  });
}

static std::optional<bool> evalLabel(const Formula &F, const NodeContext &Ctx,
                                     const Substitution &Theta) {
  const std::string &Name = F.LabelName;

  if (Name == "stmt") {
    assert(F.Args.size() == 1 && "stmt takes one statement argument");
    const auto *Pat = std::get_if<Stmt>(&F.Args[0]);
    assert(Pat && "stmt's argument must be a statement term");
    if (!allMetasBound(*Pat, Theta))
      return std::nullopt;
    Substitution Scratch = Theta;
    return matchStmt(*Pat, Ctx.stmt(), Scratch);
  }

  if (Name == "computes") {
    assert(F.Args.size() == 2 && "computes takes (expr, const)");
    auto ET = evalTerm(F.Args[0], Ctx, Theta);
    auto CT = evalTerm(F.Args[1], Ctx, Theta);
    if (!ET || !CT)
      return std::nullopt;
    const auto *E = std::get_if<Expr>(&*ET);
    const auto *CE = std::get_if<Expr>(&*CT);
    if (!E || !CE)
      return false;
    const auto *C = std::get_if<ConstVal>(&CE->V);
    if (!C)
      return false;
    auto V = foldGroundExpr(*E);
    return V && *V == C->Value;
  }

  if (const LabelDef *Def = Ctx.Registry->findPredicate(Name)) {
    assert(Def->Params.size() == F.Args.size() &&
           "label arity mismatch");
    Substitution Local;
    for (size_t I = 0; I < F.Args.size(); ++I) {
      auto B = termToBinding(F.Args[I], Ctx, Theta);
      if (!B)
        return std::nullopt;
      Local.bind(Def->Params[I].first, std::move(*B));
    }
    return evalFormula(*Def->Body, Ctx, Local);
  }

  // Analysis label: membership of the ground instance in L_p(ι).
  if (!Ctx.AnalysisLabeling)
    return false;
  GroundLabel G;
  G.Name = Name;
  for (const Term &T : F.Args) {
    auto B = termToBinding(T, Ctx, Theta);
    if (!B)
      return std::nullopt;
    G.Args.push_back(std::move(*B));
  }
  return (*Ctx.AnalysisLabeling)[Ctx.Index].count(G) != 0;
}

/// Matches a case-arm pattern against a ground scrutinee, extending Theta
/// with arm-local bindings.
static bool matchArm(const Term &Pattern, const Term &Scrutinee,
                     Substitution &Theta) {
  if (const auto *PS = std::get_if<Stmt>(&Pattern)) {
    const auto *SS = std::get_if<Stmt>(&Scrutinee);
    return SS && matchStmt(*PS, *SS, Theta);
  }
  if (const auto *PE = std::get_if<Expr>(&Pattern)) {
    const auto *SE = std::get_if<Expr>(&Scrutinee);
    return SE && matchExpr(*PE, *SE, Theta);
  }
  return false; // currStmt is not a pattern
}

std::optional<bool> cobalt::evalFormula(const Formula &F,
                                        const NodeContext &Ctx,
                                        const Substitution &Theta) {
  switch (F.K) {
  case Formula::Kind::FK_True:
    return true;
  case Formula::Kind::FK_False:
    return false;
  case Formula::Kind::FK_Not: {
    auto R = evalFormula(*F.Kids[0], Ctx, Theta);
    if (!R)
      return std::nullopt;
    return !*R;
  }
  case Formula::Kind::FK_And: {
    bool SawUnknown = false;
    for (const FormulaPtr &Kid : F.Kids) {
      auto R = evalFormula(*Kid, Ctx, Theta);
      if (!R)
        SawUnknown = true;
      else if (!*R)
        return false;
    }
    if (SawUnknown)
      return std::nullopt;
    return true;
  }
  case Formula::Kind::FK_Or: {
    bool SawUnknown = false;
    for (const FormulaPtr &Kid : F.Kids) {
      auto R = evalFormula(*Kid, Ctx, Theta);
      if (!R)
        SawUnknown = true;
      else if (*R)
        return true;
    }
    if (SawUnknown)
      return std::nullopt;
    return false;
  }
  case Formula::Kind::FK_Label:
    return evalLabel(F, Ctx, Theta);
  case Formula::Kind::FK_Eq: {
    auto A = evalTerm(F.LhsT, Ctx, Theta);
    auto B = evalTerm(F.RhsT, Ctx, Theta);
    if (!A || !B)
      return std::nullopt;
    return *A == *B;
  }
  case Formula::Kind::FK_Case: {
    auto Scrutinee = evalTerm(F.LhsT, Ctx, Theta);
    if (!Scrutinee)
      return std::nullopt;
    for (const CaseArm &Arm : F.Arms) {
      Substitution ArmTheta = Theta;
      if (matchArm(Arm.Pattern, *Scrutinee, ArmTheta))
        return evalFormula(*Arm.Body, Ctx, ArmTheta);
    }
    return evalFormula(*F.ElseBody, Ctx, Theta);
  }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Generative satisfaction.
//===----------------------------------------------------------------------===//

namespace {

/// Enumerates bindings for the given unbound pattern variables over the
/// universe, invoking \p Sink for each complete assignment.
void enumerateUnbound(
    const std::vector<std::pair<std::string, MetaKind>> &Frees, size_t At,
    const Universe &Univ, Substitution Theta,
    const std::function<void(const Substitution &)> &Sink) {
  while (At < Frees.size() && Theta.isBound(Frees[At].first))
    ++At;
  if (At == Frees.size()) {
    Sink(Theta);
    return;
  }
  const auto &[Name, Kind] = Frees[At];
  switch (Kind) {
  case MetaKind::MK_Var:
    for (const std::string &V : Univ.Vars) {
      Substitution Next = Theta;
      Next.bind(Name, Binding::var(V));
      enumerateUnbound(Frees, At + 1, Univ, std::move(Next), Sink);
    }
    return;
  case MetaKind::MK_Const:
    for (int64_t C : Univ.Consts) {
      Substitution Next = Theta;
      Next.bind(Name, Binding::constant(C));
      enumerateUnbound(Frees, At + 1, Univ, std::move(Next), Sink);
    }
    return;
  case MetaKind::MK_Expr:
    for (const Expr &E : Univ.Exprs) {
      Substitution Next = Theta;
      Next.bind(Name, Binding::expr(E));
      enumerateUnbound(Frees, At + 1, Univ, std::move(Next), Sink);
    }
    return;
  case MetaKind::MK_Proc:
    for (const std::string &P : Univ.Procs) {
      Substitution Next = Theta;
      Next.bind(Name, Binding::proc(P));
      enumerateUnbound(Frees, At + 1, Univ, std::move(Next), Sink);
    }
    return;
  case MetaKind::MK_Index:
    for (int I : Univ.Indices) {
      Substitution Next = Theta;
      Next.bind(Name, Binding::index(I));
      enumerateUnbound(Frees, At + 1, Univ, std::move(Next), Sink);
    }
    return;
  }
}

/// Matches a label-argument term pattern against a ground binding,
/// extending Theta (used to read bindings out of analysis labels).
bool matchTermBinding(const Term &Pattern, const Binding &Value,
                      Substitution &Theta) {
  const auto *E = std::get_if<Expr>(&Pattern);
  if (!E)
    return false;
  if (const auto *X = std::get_if<Var>(&E->V)) {
    if (!X->IsMeta)
      return Value.isVar() && Value.asVar() == X->Name;
    if (X->isWildcard())
      return true;
    if (!Value.isVar())
      return false;
    return Theta.bind(X->Name, Value);
  }
  if (const auto *C = std::get_if<ConstVal>(&E->V)) {
    if (!C->IsMeta)
      return Value.isConst() && Value.asConst() == C->Value;
    if (C->isWildcard())
      return true;
    if (!Value.isConst())
      return false;
    return Theta.bind(C->MetaName, Value);
  }
  if (const auto *M = std::get_if<MetaExpr>(&E->V)) {
    if (M->isWildcard())
      return true;
    return Theta.bind(M->Name, Value);
  }
  // Structural expression pattern against an Exprs binding.
  if (!Value.isExpr())
    return false;
  return matchExpr(*E, Value.asExpr(), Theta);
}

} // namespace

std::vector<Substitution> cobalt::satisfyFormula(const Formula &F,
                                                 const NodeContext &Ctx,
                                                 const Substitution &Theta) {
  std::set<Substitution> Out;

  auto EnumerateThenEval = [&]() {
    std::vector<std::pair<std::string, MetaKind>> Frees;
    collectFreeMetas(F, Frees);
    enumerateUnbound(Frees, 0, *Ctx.Univ, Theta,
                     [&](const Substitution &Full) {
                       auto R = evalFormula(F, Ctx, Full);
                       if (R && *R)
                         Out.insert(Full);
                     });
  };

  switch (F.K) {
  case Formula::Kind::FK_True:
    return {Theta};
  case Formula::Kind::FK_False:
    return {};
  case Formula::Kind::FK_And: {
    std::vector<Substitution> Acc = {Theta};
    for (const FormulaPtr &Kid : F.Kids) {
      std::set<Substitution> Next;
      for (const Substitution &T : Acc)
        for (Substitution &R : satisfyFormula(*Kid, Ctx, T))
          Next.insert(std::move(R));
      Acc.assign(Next.begin(), Next.end());
      if (Acc.empty())
        return {};
    }
    return Acc;
  }
  case Formula::Kind::FK_Or: {
    for (const FormulaPtr &Kid : F.Kids)
      for (Substitution &R : satisfyFormula(*Kid, Ctx, Theta))
        Out.insert(std::move(R));
    return {Out.begin(), Out.end()};
  }
  case Formula::Kind::FK_Label: {
    const std::string &Name = F.LabelName;
    if (Name == "stmt") {
      const auto *Pat = std::get_if<Stmt>(&F.Args[0]);
      assert(Pat && "stmt's argument must be a statement term");
      Substitution Extended = Theta;
      if (matchStmt(*Pat, Ctx.stmt(), Extended))
        Out.insert(std::move(Extended));
      return {Out.begin(), Out.end()};
    }
    if (Name == "computes") {
      // Generative: enumerate only the expression side's unbound
      // variables, fold, and *bind* the result side (never enumerate the
      // result — constant folding would otherwise be cubic in the
      // constant universe).
      std::vector<std::pair<std::string, MetaKind>> ExprFrees;
      collectMetaKinds(F.Args[0], ExprFrees);
      enumerateUnbound(
          ExprFrees, 0, *Ctx.Univ, Theta, [&](const Substitution &Th) {
            auto ET = evalTerm(F.Args[0], Ctx, Th);
            if (!ET)
              return;
            const auto *E = std::get_if<Expr>(&*ET);
            if (!E)
              return;
            auto V = foldGroundExpr(*E);
            if (!V)
              return;
            const auto *CE = std::get_if<Expr>(&F.Args[1]);
            if (!CE)
              return;
            Substitution Extended = Th;
            if (matchExpr(*CE, Expr(ConstVal::concrete(*V)), Extended))
              Out.insert(std::move(Extended));
          });
      return {Out.begin(), Out.end()};
    }
    if (Ctx.Registry->isAnalysisLabel(Name)) {
      if (!Ctx.AnalysisLabeling)
        return {};
      for (const GroundLabel &G : (*Ctx.AnalysisLabeling)[Ctx.Index]) {
        if (G.Name != Name || G.Args.size() != F.Args.size())
          continue;
        Substitution Extended = Theta;
        bool Ok = true;
        for (size_t I = 0; Ok && I < F.Args.size(); ++I)
          Ok = matchTermBinding(F.Args[I], G.Args[I], Extended);
        if (Ok)
          Out.insert(std::move(Extended));
      }
      return {Out.begin(), Out.end()};
    }
    // User predicate label (or unknown name, which evaluates over the
    // universe and will simply produce nothing if always false).
    EnumerateThenEval();
    return {Out.begin(), Out.end()};
  }
  case Formula::Kind::FK_Not:
  case Formula::Kind::FK_Eq:
  case Formula::Kind::FK_Case:
    EnumerateThenEval();
    return {Out.begin(), Out.end()};
  }
  return {};
}
