//===- Encoder.cpp --------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Encoder.h"

#include "ir/Printer.h"

#include <cassert>

using namespace cobalt;
using namespace cobalt::checker;
using namespace cobalt::ir;

//===----------------------------------------------------------------------===//
// Datatype construction (C API; the 4.8 C++ wrapper lacks datatypes).
//===----------------------------------------------------------------------===//

namespace {

/// One constructor description for makeDatatype.
struct CtorSpec {
  const char *Name;
  const char *Recognizer;
  std::vector<std::pair<const char *, z3::sort>> Fields;
};

/// The queried declarations of a built datatype.
struct BuiltCtor {
  z3::func_decl Ctor;
  z3::func_decl Tester;
  std::vector<z3::func_decl> Accessors;
};

z3::sort makeDatatype(z3::context &C, const char *Name,
                      const std::vector<CtorSpec> &Specs,
                      std::vector<BuiltCtor> &Out) {
  std::vector<Z3_constructor> Ctors;
  for (const CtorSpec &Spec : Specs) {
    std::vector<Z3_symbol> FieldNames;
    std::vector<Z3_sort> FieldSorts;
    std::vector<unsigned> SortRefs;
    for (const auto &[FName, FSort] : Spec.Fields) {
      FieldNames.push_back(Z3_mk_string_symbol(C, FName));
      FieldSorts.push_back(FSort);
      SortRefs.push_back(0);
    }
    Ctors.push_back(Z3_mk_constructor(
        C, Z3_mk_string_symbol(C, Spec.Name),
        Z3_mk_string_symbol(C, Spec.Recognizer),
        static_cast<unsigned>(Spec.Fields.size()),
        FieldNames.empty() ? nullptr : FieldNames.data(),
        FieldSorts.empty() ? nullptr : FieldSorts.data(),
        SortRefs.empty() ? nullptr : SortRefs.data()));
  }

  Z3_sort Sort = Z3_mk_datatype(C, Z3_mk_string_symbol(C, Name),
                                static_cast<unsigned>(Ctors.size()),
                                Ctors.data());
  z3::sort Result(C, Sort);

  for (size_t I = 0; I < Ctors.size(); ++I) {
    Z3_func_decl Ctor, Tester;
    std::vector<Z3_func_decl> Accessors(Specs[I].Fields.size());
    Z3_query_constructor(C, Ctors[I],
                         static_cast<unsigned>(Specs[I].Fields.size()),
                         &Ctor, &Tester,
                         Accessors.empty() ? nullptr : Accessors.data());
    BuiltCtor B{z3::func_decl(C, Ctor), z3::func_decl(C, Tester), {}};
    for (Z3_func_decl A : Accessors)
      B.Accessors.push_back(z3::func_decl(C, A));
    Out.push_back(std::move(B));
    Z3_del_constructor(C, Ctors[I]);
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction.
//===----------------------------------------------------------------------===//

Encoder::Encoder(z3::context &Ctx)
    : VarS(Ctx), ProcS(Ctx), OpS(Ctx), ValueS(Ctx), BaseS(Ctx), ExprS(Ctx),
      LhsS(Ctx), StmtS(Ctx), IntV(Ctx), LocV(Ctx), IsIntV(Ctx), IsLocV(Ctx),
      IVal(Ctx), LVal(Ctx), BVar(Ctx), BConst(Ctx), IsBVar(Ctx),
      IsBConst(Ctx), BVarName(Ctx), BConstVal(Ctx), EBase(Ctx), EDeref(Ctx),
      EAddr(Ctx), EOp1(Ctx), EOp2(Ctx), IsEBase(Ctx), IsEDeref(Ctx),
      IsEAddr(Ctx), IsEOp1(Ctx), IsEOp2(Ctx), EBaseB(Ctx), EDerefVar(Ctx),
      EAddrVar(Ctx), EOp1Op(Ctx), EOp1Arg(Ctx), EOp2Op(Ctx), EOp2A(Ctx),
      EOp2B(Ctx), LVarC(Ctx), LDerefC(Ctx), IsLVar(Ctx), IsLDeref(Ctx),
      LVarName(Ctx), LDerefVar(Ctx), SDecl(Ctx), SSkip(Ctx), SAssign(Ctx),
      SNew(Ctx), SCall(Ctx), SBranch(Ctx), SReturn(Ctx), IsSDecl(Ctx),
      IsSSkip(Ctx), IsSAssign(Ctx), IsSNew(Ctx), IsSCall(Ctx),
      IsSBranch(Ctx), IsSReturn(Ctx), SDeclVar(Ctx), SAssignLhs(Ctx),
      SAssignRhs(Ctx), SNewVar(Ctx), SCallTgt(Ctx), SCallProc(Ctx),
      SCallArg(Ctx), SBranchCond(Ctx), SBranchThen(Ctx), SBranchElse(Ctx),
      SReturnVar(Ctx), ApplyOp1(Ctx), ApplyOp2(Ctx), DefinedOp1(Ctx),
      DefinedOp2(Ctx), CallStoF(Ctx), CallAllocF(Ctx), C(Ctx) {
  buildSorts();
}

void Encoder::buildSorts() {
  VarS = C.uninterpreted_sort("VarName");
  ProcS = C.uninterpreted_sort("ProcName");
  OpS = C.uninterpreted_sort("OpName");
  z3::sort IntS = C.int_sort();

  {
    std::vector<BuiltCtor> B;
    ValueS = makeDatatype(C, "Value",
                          {{"IntV", "isIntV", {{"iVal", IntS}}},
                           {"LocV", "isLocV", {{"lVal", IntS}}}},
                          B);
    IntV = B[0].Ctor;
    IsIntV = B[0].Tester;
    IVal = B[0].Accessors[0];
    LocV = B[1].Ctor;
    IsLocV = B[1].Tester;
    LVal = B[1].Accessors[0];
  }
  {
    std::vector<BuiltCtor> B;
    BaseS = makeDatatype(C, "BaseExpr",
                         {{"BVar", "isBVar", {{"bVarName", VarS}}},
                          {"BConst", "isBConst", {{"bConstVal", IntS}}}},
                         B);
    BVar = B[0].Ctor;
    IsBVar = B[0].Tester;
    BVarName = B[0].Accessors[0];
    BConst = B[1].Ctor;
    IsBConst = B[1].Tester;
    BConstVal = B[1].Accessors[0];
  }
  {
    std::vector<BuiltCtor> B;
    ExprS = makeDatatype(
        C, "Expr",
        {{"EBase", "isEBase", {{"eBaseB", BaseS}}},
         {"EDeref", "isEDeref", {{"eDerefVar", VarS}}},
         {"EAddr", "isEAddr", {{"eAddrVar", VarS}}},
         {"EOp1", "isEOp1", {{"eOp1Op", OpS}, {"eOp1Arg", BaseS}}},
         {"EOp2", "isEOp2",
          {{"eOp2Op", OpS}, {"eOp2A", BaseS}, {"eOp2B", BaseS}}}},
        B);
    EBase = B[0].Ctor;
    IsEBase = B[0].Tester;
    EBaseB = B[0].Accessors[0];
    EDeref = B[1].Ctor;
    IsEDeref = B[1].Tester;
    EDerefVar = B[1].Accessors[0];
    EAddr = B[2].Ctor;
    IsEAddr = B[2].Tester;
    EAddrVar = B[2].Accessors[0];
    EOp1 = B[3].Ctor;
    IsEOp1 = B[3].Tester;
    EOp1Op = B[3].Accessors[0];
    EOp1Arg = B[3].Accessors[1];
    EOp2 = B[4].Ctor;
    IsEOp2 = B[4].Tester;
    EOp2Op = B[4].Accessors[0];
    EOp2A = B[4].Accessors[1];
    EOp2B = B[4].Accessors[2];
  }
  {
    std::vector<BuiltCtor> B;
    LhsS = makeDatatype(C, "Lhs",
                        {{"LVar", "isLVar", {{"lVarName", VarS}}},
                         {"LDeref", "isLDeref", {{"lDerefVar", VarS}}}},
                        B);
    LVarC = B[0].Ctor;
    IsLVar = B[0].Tester;
    LVarName = B[0].Accessors[0];
    LDerefC = B[1].Ctor;
    IsLDeref = B[1].Tester;
    LDerefVar = B[1].Accessors[0];
  }
  {
    std::vector<BuiltCtor> B;
    StmtS = makeDatatype(
        C, "Stmt",
        {{"SDecl", "isSDecl", {{"sDeclVar", VarS}}},
         {"SSkip", "isSSkip", {}},
         {"SAssign", "isSAssign", {{"sAssignLhs", LhsS}, {"sAssignRhs", ExprS}}},
         {"SNew", "isSNew", {{"sNewVar", VarS}}},
         {"SCall", "isSCall",
          {{"sCallTgt", VarS}, {"sCallProc", ProcS}, {"sCallArg", BaseS}}},
         {"SBranch", "isSBranch",
          {{"sBranchCond", BaseS}, {"sBranchThen", IntS}, {"sBranchElse", IntS}}},
         {"SReturn", "isSReturn", {{"sReturnVar", VarS}}}},
        B);
    SDecl = B[0].Ctor;
    IsSDecl = B[0].Tester;
    SDeclVar = B[0].Accessors[0];
    SSkip = B[1].Ctor;
    IsSSkip = B[1].Tester;
    SAssign = B[2].Ctor;
    IsSAssign = B[2].Tester;
    SAssignLhs = B[2].Accessors[0];
    SAssignRhs = B[2].Accessors[1];
    SNew = B[3].Ctor;
    IsSNew = B[3].Tester;
    SNewVar = B[3].Accessors[0];
    SCall = B[4].Ctor;
    IsSCall = B[4].Tester;
    SCallTgt = B[4].Accessors[0];
    SCallProc = B[4].Accessors[1];
    SCallArg = B[4].Accessors[2];
    SBranch = B[5].Ctor;
    IsSBranch = B[5].Tester;
    SBranchCond = B[5].Accessors[0];
    SBranchThen = B[5].Accessors[1];
    SBranchElse = B[5].Accessors[2];
    SReturn = B[6].Ctor;
    IsSReturn = B[6].Tester;
    SReturnVar = B[6].Accessors[0];
  }

  ApplyOp1 = C.function("applyOp1", OpS, C.int_sort(), C.int_sort());
  DefinedOp1 = C.function("definedOp1", OpS, C.int_sort(), C.bool_sort());
  ApplyOp2 =
      C.function("applyOp2", OpS, C.int_sort(), C.int_sort(), C.int_sort());
  DefinedOp2 =
      C.function("definedOp2", OpS, C.int_sort(), C.int_sort(), C.bool_sort());

  z3::sort EnvS = C.array_sort(VarS, C.int_sort());
  z3::sort ScopeS = C.array_sort(VarS, C.bool_sort());
  z3::sort StoS = C.array_sort(C.int_sort(), ValueS);
  {
    // The C++ wrapper lacks a 5-ary overload; build via sort vectors.
    z3::sort_vector DomV(C);
    DomV.push_back(EnvS);
    DomV.push_back(ScopeS);
    DomV.push_back(StoS);
    DomV.push_back(C.int_sort());
    DomV.push_back(StmtS);
    CallStoF = C.function("callSto", DomV, StoS);
    CallAllocF = C.function("callAlloc", DomV, C.int_sort());
  }
}

//===----------------------------------------------------------------------===//
// Named constants.
//===----------------------------------------------------------------------===//

z3::expr Encoder::opConst(const std::string &Spelling, unsigned Arity) {
  std::string Key = Spelling + "#" + std::to_string(Arity);
  auto It = OpConsts.find(Key);
  if (It != OpConsts.end())
    return It->second;
  z3::expr E = C.constant(("op!" + Key).c_str(), OpS);
  OpConsts.emplace(Key, E);
  return E;
}

z3::expr Encoder::concreteVar(const std::string &Name) {
  auto It = ConcreteVars.find(Name);
  if (It != ConcreteVars.end())
    return It->second;
  z3::expr E = C.constant(("var!" + Name).c_str(), VarS);
  ConcreteVars.emplace(Name, E);
  AllVarConsts.push_back(E);
  return E;
}

z3::expr Encoder::concreteProc(const std::string &Name) {
  auto It = ConcreteProcs.find(Name);
  if (It != ConcreteProcs.end())
    return It->second;
  z3::expr E = C.constant(("proc!" + Name).c_str(), ProcS);
  ConcreteProcs.emplace(Name, E);
  AllProcConsts.push_back(E);
  return E;
}

z3::expr Encoder::freshVar(const std::string &Hint) {
  z3::expr E = C.constant(
      (Hint + "!" + std::to_string(FreshCounter++)).c_str(), VarS);
  AllVarConsts.push_back(E);
  return E;
}
z3::expr Encoder::freshExpr(const std::string &Hint) {
  return C.constant((Hint + "!" + std::to_string(FreshCounter++)).c_str(),
                    ExprS);
}
z3::expr Encoder::freshProc(const std::string &Hint) {
  z3::expr E = C.constant(
      (Hint + "!" + std::to_string(FreshCounter++)).c_str(), ProcS);
  AllProcConsts.push_back(E);
  return E;
}
z3::expr Encoder::freshInt(const std::string &Hint) {
  return C.constant((Hint + "!" + std::to_string(FreshCounter++)).c_str(),
                    C.int_sort());
}
z3::expr Encoder::freshStmt(const std::string &Hint) {
  return C.constant((Hint + "!" + std::to_string(FreshCounter++)).c_str(),
                    StmtS);
}
z3::expr Encoder::freshBool(const std::string &Hint) {
  return C.constant((Hint + "!" + std::to_string(FreshCounter++)).c_str(),
                    C.bool_sort());
}
z3::expr Encoder::freshBase(const std::string &Hint) {
  return C.constant((Hint + "!" + std::to_string(FreshCounter++)).c_str(),
                    BaseS);
}
z3::expr Encoder::freshLhs(const std::string &Hint) {
  return C.constant((Hint + "!" + std::to_string(FreshCounter++)).c_str(),
                    LhsS);
}

//===----------------------------------------------------------------------===//
// Background axioms.
//===----------------------------------------------------------------------===//

void Encoder::addBackgroundAxioms(z3::solver &S) {
  addOperatorAxioms(S);
  addDistinctnessAxioms(S);
}

void Encoder::addOperatorAxioms(z3::solver &S) {
  z3::expr A = C.int_const("axA");
  z3::expr B = C.int_const("axB");
  auto ForAll2 = [&](z3::expr Body) { return z3::forall(A, B, Body); };
  auto ForAll1 = [&](z3::expr Body) { return z3::forall(A, Body); };
  auto B2I = [&](z3::expr Cond) {
    return z3::ite(Cond, C.int_val(1), C.int_val(0));
  };

  // Known binary operators.
  struct Bin {
    const char *Sp;
    z3::expr Sem;
    z3::expr Def;
  };
  std::vector<Bin> Bins;
  Bins.push_back({"+", A + B, C.bool_val(true)});
  Bins.push_back({"-", A - B, C.bool_val(true)});
  Bins.push_back({"*", A * B, C.bool_val(true)});
  Bins.push_back({"==", B2I(A == B), C.bool_val(true)});
  Bins.push_back({"!=", B2I(A != B), C.bool_val(true)});
  Bins.push_back({"<", B2I(A < B), C.bool_val(true)});
  Bins.push_back({"<=", B2I(A <= B), C.bool_val(true)});
  Bins.push_back({">", B2I(A > B), C.bool_val(true)});
  Bins.push_back({">=", B2I(A >= B), C.bool_val(true)});
  for (const Bin &Op : Bins) {
    z3::expr OpC = opConst(Op.Sp, 2);
    S.add(ForAll2(ApplyOp2(OpC, A, B) == Op.Sem));
    S.add(ForAll2(DefinedOp2(OpC, A, B) == Op.Def));
  }
  // Division and modulus: undefined on zero divisors. Z3's div/mod match
  // the interpreter for nonnegative operands; the interpreter uses C++
  // semantics (truncation), Z3 uses Euclidean — constrain only where
  // they agree is overkill for soundness proofs, which never rely on a
  // specific rounding, so use Z3's operators and the zero-divisor
  // definedness condition. (No shipped optimization folds '/' or '%'.)
  {
    z3::expr DivC = opConst("/", 2);
    z3::expr ModC = opConst("%", 2);
    S.add(ForAll2(z3::implies(B != 0, ApplyOp2(DivC, A, B) == A / B)));
    S.add(ForAll2(DefinedOp2(DivC, A, B) == (B != 0)));
    S.add(ForAll2(z3::implies(B != 0, ApplyOp2(ModC, A, B) == z3::mod(A, B))));
    S.add(ForAll2(DefinedOp2(ModC, A, B) == (B != 0)));
  }
  // Known unary operators.
  {
    z3::expr NotC = opConst("!", 1);
    S.add(ForAll1(ApplyOp1(NotC, A) == B2I(A == 0)));
    S.add(ForAll1(DefinedOp1(NotC, A) == C.bool_val(true)));
    z3::expr NegC = opConst("-", 1);
    S.add(ForAll1(ApplyOp1(NegC, A) == -A));
    S.add(ForAll1(DefinedOp1(NegC, A) == C.bool_val(true)));
    z3::expr NegC2 = opConst("neg", 1);
    S.add(ForAll1(ApplyOp1(NegC2, A) == -A));
    S.add(ForAll1(DefinedOp1(NegC2, A) == C.bool_val(true)));
  }
}

void Encoder::addDistinctnessAxioms(z3::solver &S) {
  // Distinctness of named operator constants (per arity) and of concrete
  // variable / procedure names.
  auto AddDistinct = [&](const std::map<std::string, z3::expr> &M,
                         bool SplitByAritySuffix) {
    std::map<std::string, std::vector<z3::expr>> Groups;
    for (const auto &[Key, E] : M) {
      std::string Group;
      if (SplitByAritySuffix) {
        size_t Hash = Key.rfind('#');
        Group = Key.substr(Hash);
      }
      Groups[Group].push_back(E);
    }
    for (auto &[G, Es] : Groups) {
      (void)G;
      if (Es.size() < 2)
        continue;
      z3::expr_vector V(C);
      for (const z3::expr &E : Es)
        V.push_back(E);
      S.add(z3::distinct(V));
    }
  };
  AddDistinct(OpConsts, /*SplitByAritySuffix=*/true);
  AddDistinct(ConcreteVars, false);
  AddDistinct(ConcreteProcs, false);
}

void Encoder::resetObligation() {
  ConcreteVars.clear();
  ConcreteProcs.clear();
  AllVarConsts.clear();
  AllProcConsts.clear();
  AllAllocs.clear();
  FreshCounter = 0;
}

//===----------------------------------------------------------------------===//
// States.
//===----------------------------------------------------------------------===//

ZState Encoder::freshState(const std::string &Prefix) {
  z3::sort IntS = C.int_sort();
  ZState S{
      C.constant((Prefix + ".ix").c_str(), IntS),
      C.constant((Prefix + ".env").c_str(), C.array_sort(VarS, IntS)),
      C.constant((Prefix + ".scope").c_str(),
                 C.array_sort(VarS, C.bool_sort())),
      C.constant((Prefix + ".sto").c_str(), C.array_sort(IntS, ValueS)),
      C.constant((Prefix + ".alloc").c_str(), IntS)};
  AllAllocs.push_back(S.Alloc);
  return S;
}

z3::expr Encoder::wf(const ZState &S) {
  z3::expr X = C.constant("wfX", VarS);
  z3::expr Y = C.constant("wfY", VarS);
  z3::expr L = C.int_const("wfL");

  z3::expr EnvRange = z3::forall(
      X, z3::implies(z3::select(S.Scope, X),
                     z3::select(S.Env, X) >= 0 &&
                         z3::select(S.Env, X) < S.Alloc));
  z3::expr EnvInj = z3::forall(
      X, Y,
      z3::implies(z3::select(S.Scope, X) && z3::select(S.Scope, Y) &&
                      X != Y,
                  z3::select(S.Env, X) != z3::select(S.Env, Y)));
  z3::expr StoRange = z3::forall(
      L, z3::implies(L >= 0 && L < S.Alloc &&
                         IsLocV(z3::select(S.Sto, L)),
                     LVal(z3::select(S.Sto, L)) >= 0 &&
                         LVal(z3::select(S.Sto, L)) < S.Alloc));
  return EnvRange && EnvInj && StoRange && S.Alloc >= 0;
}

z3::expr Encoder::notPointedToLoc(const ZState &S, const z3::expr &Loc) {
  z3::expr M = C.int_const("nptM");
  return z3::forall(M, z3::implies(M >= 0 && M < S.Alloc,
                                   z3::select(S.Sto, M) != LocV(Loc)));
}

z3::expr Encoder::wfBounded(const ZState &S) {
  z3::expr Out = S.Alloc >= 0;
  for (size_t I = 0; I < AllVarConsts.size(); ++I) {
    const z3::expr &X = AllVarConsts[I];
    z3::expr EnvX = z3::select(S.Env, X);
    Out = Out && z3::implies(z3::select(S.Scope, X),
                             EnvX >= 0 && EnvX < S.Alloc);
    for (size_t J = I + 1; J < AllVarConsts.size(); ++J) {
      const z3::expr &Y = AllVarConsts[J];
      Out = Out && z3::implies(z3::select(S.Scope, X) &&
                                   z3::select(S.Scope, Y) && X != Y,
                               EnvX != z3::select(S.Env, Y));
    }
  }
  for (int L = 0; L < 5; ++L) {
    z3::expr Cell = z3::select(S.Sto, C.int_val(L));
    Out = Out && z3::implies(C.int_val(L) < S.Alloc && IsLocV(Cell),
                             LVal(Cell) >= 0 && LVal(Cell) < S.Alloc);
  }
  return Out;
}

std::vector<z3::expr> Encoder::domainClosure() {
  std::vector<z3::expr> Out;
  auto Close = [&](std::vector<z3::expr> Consts, const z3::sort &Sort,
                   const char *Spare) {
    Consts.push_back(C.constant(Spare, Sort));
    z3::expr X = C.constant((std::string(Spare) + "!x").c_str(), Sort);
    z3::expr AnyOf = C.bool_val(false);
    for (const z3::expr &V : Consts)
      AnyOf = AnyOf || X == V;
    Out.push_back(z3::forall(X, AnyOf));
  };
  Close(AllVarConsts, VarS, "dcVarSpare");
  Close(AllProcConsts, ProcS, "dcProcSpare");
  // Bound the location space: counterexamples to these per-statement
  // obligations never need more than a handful of cells.
  for (const z3::expr &A : AllAllocs)
    Out.push_back(A >= 0 && A <= 4);
  std::vector<z3::expr> Ops;
  for (const auto &[K, E] : OpConsts) {
    (void)K;
    Ops.push_back(E);
  }
  Close(Ops, OpS, "dcOpSpare");
  return Out;
}

//===----------------------------------------------------------------------===//
// Denotations.
//===----------------------------------------------------------------------===//

ZEval Encoder::evalBase(const ZState &S, const z3::expr &B) {
  z3::expr Name = BVarName(B);
  z3::expr Val = z3::ite(IsBVar(B), z3::select(S.Sto, z3::select(S.Env, Name)),
                         IntV(BConstVal(B)));
  z3::expr Def =
      z3::ite(IsBVar(B), z3::select(S.Scope, Name), C.bool_val(true));
  return {Val, Def};
}

ZEval Encoder::evalExpr(const ZState &S, const z3::expr &E) {
  ZEval Base = evalBase(S, EBaseB(E));

  // *x: read x, require a location in range, read the cell.
  z3::expr DVar = EDerefVar(E);
  z3::expr PtrVal = z3::select(S.Sto, z3::select(S.Env, DVar));
  z3::expr DerefVal = z3::select(S.Sto, LVal(PtrVal));
  z3::expr DerefDef = z3::select(S.Scope, DVar) && IsLocV(PtrVal) &&
                      LVal(PtrVal) >= 0 && LVal(PtrVal) < S.Alloc;

  // &x.
  z3::expr AddrVal = LocV(z3::select(S.Env, EAddrVar(E)));
  z3::expr AddrDef = z3::select(S.Scope, EAddrVar(E));

  // op b / op b b: integer arguments only.
  ZEval A1 = evalBase(S, EOp1Arg(E));
  z3::expr Op1Val = IntV(ApplyOp1(EOp1Op(E), IVal(A1.Val)));
  z3::expr Op1Def = A1.Defined && IsIntV(A1.Val) &&
                    DefinedOp1(EOp1Op(E), IVal(A1.Val));

  ZEval A2a = evalBase(S, EOp2A(E));
  ZEval A2b = evalBase(S, EOp2B(E));
  z3::expr Op2Val =
      IntV(ApplyOp2(EOp2Op(E), IVal(A2a.Val), IVal(A2b.Val)));
  z3::expr Op2Def = A2a.Defined && A2b.Defined && IsIntV(A2a.Val) &&
                    IsIntV(A2b.Val) &&
                    DefinedOp2(EOp2Op(E), IVal(A2a.Val), IVal(A2b.Val));

  z3::expr Val = z3::ite(
      IsEBase(E), Base.Val,
      z3::ite(IsEDeref(E), DerefVal,
              z3::ite(IsEAddr(E), AddrVal,
                      z3::ite(IsEOp1(E), Op1Val, Op2Val))));
  z3::expr Def = z3::ite(
      IsEBase(E), Base.Defined,
      z3::ite(IsEDeref(E), DerefDef,
              z3::ite(IsEAddr(E), AddrDef,
                      z3::ite(IsEOp1(E), Op1Def, Op2Def))));
  return {Val, Def};
}

ZEval Encoder::evalLhsLoc(const ZState &S, const z3::expr &L) {
  z3::expr VarLoc = z3::select(S.Env, LVarName(L));
  z3::expr VarDef = z3::select(S.Scope, LVarName(L));

  z3::expr PtrVal = z3::select(S.Sto, z3::select(S.Env, LDerefVar(L)));
  z3::expr DerefLoc = LVal(PtrVal);
  z3::expr DerefDef = z3::select(S.Scope, LDerefVar(L)) && IsLocV(PtrVal) &&
                      DerefLoc >= 0 && DerefLoc < S.Alloc;

  return {z3::ite(IsLVar(L), VarLoc, DerefLoc),
          z3::ite(IsLVar(L), VarDef, DerefDef)};
}

//===----------------------------------------------------------------------===//
// Steps.
//===----------------------------------------------------------------------===//

ZStep Encoder::encodeStep(const ZState &S, const z3::expr &St,
                          const std::string &Prefix) {
  z3::expr True = C.bool_val(true);

  // Per-kind pieces.
  z3::expr DeclVar = SDeclVar(St);
  z3::expr NewVar = SNewVar(St);

  ZEval Rhs = evalExpr(S, SAssignRhs(St));
  ZEval LhsL = evalLhsLoc(S, SAssignLhs(St));

  ZEval Cond = evalBase(S, SBranchCond(St));

  ZEval Arg = evalBase(S, SCallArg(St));
  z3::expr CallTgt = SCallTgt(St);

  // The post-call store/allocator, functionally determined by the
  // pre-state and the call statement (see CallStoF's declaration).
  z3::expr_vector CallArgs(C);
  CallArgs.push_back(S.Env);
  CallArgs.push_back(S.Scope);
  CallArgs.push_back(S.Sto);
  CallArgs.push_back(S.Alloc);
  CallArgs.push_back(St);
  z3::expr CallSto = CallStoF(CallArgs);
  z3::expr CallAlloc = CallAllocF(CallArgs);

  // Definedness.
  z3::expr Defined = z3::ite(
      IsSDecl(St), True,
      z3::ite(IsSSkip(St), True,
              z3::ite(IsSAssign(St), Rhs.Defined && LhsL.Defined,
                      z3::ite(IsSNew(St), z3::select(S.Scope, NewVar),
                              z3::ite(IsSCall(St),
                                      z3::select(S.Scope, CallTgt) &&
                                          Arg.Defined,
                                      z3::ite(IsSBranch(St),
                                              Cond.Defined &&
                                                  IsIntV(Cond.Val),
                                              /*SReturn: no ↪π step*/
                                              C.bool_val(false)))))));

  // Post components.
  z3::expr PostIx = z3::ite(
      IsSBranch(St),
      z3::ite(IVal(Cond.Val) != 0, SBranchThen(St), SBranchElse(St)),
      S.Ix + 1);

  z3::expr PostEnv =
      z3::ite(IsSDecl(St), z3::store(S.Env, DeclVar, S.Alloc), S.Env);

  z3::expr PostScope =
      z3::ite(IsSDecl(St), z3::store(S.Scope, DeclVar, True), S.Scope);

  z3::expr PostAlloc = z3::ite(
      IsSDecl(St) || IsSNew(St), S.Alloc + 1,
      z3::ite(IsSCall(St), CallAlloc, S.Alloc));

  z3::expr Zero = IntV(C.int_val(0));
  z3::expr PostSto = z3::ite(
      IsSDecl(St), z3::store(S.Sto, S.Alloc, Zero),
      z3::ite(IsSAssign(St), z3::store(S.Sto, LhsL.Val, Rhs.Val),
              z3::ite(IsSNew(St),
                      z3::store(z3::store(S.Sto, S.Alloc, Zero),
                                z3::select(S.Env, NewVar),
                                LocV(S.Alloc)),
                      z3::ite(IsSCall(St), CallSto, S.Sto))));

  ZStep Out{Defined, ZState{PostIx, PostEnv, PostScope, PostSto, PostAlloc},
            {}};

  // The conservative call contract (guarded by IsSCall so the Skolem
  // constants are only constrained when the statement is a call).
  {
    z3::expr IsCall = IsSCall(St);
    z3::expr L = C.int_const((Prefix + ".ccL").c_str());
    z3::expr M = C.int_const((Prefix + ".ccM").c_str());

    // Allocation only grows.
    Out.Constraints.push_back(z3::implies(IsCall, CallAlloc >= S.Alloc));

    // Frame: locations that are allocated, not pointed-to, and not the
    // call target's cell keep their contents (the paper's primary axiom).
    z3::expr NotPointed =
        z3::forall(M, z3::implies(M >= 0 && M < S.Alloc,
                                  z3::select(S.Sto, M) != LocV(L)));
    Out.Constraints.push_back(z3::implies(
        IsCall,
        z3::forall(L, z3::implies(L >= 0 && L < S.Alloc &&
                                      L != z3::select(S.Env, CallTgt) &&
                                      NotPointed,
                                  z3::select(CallSto, L) ==
                                      z3::select(S.Sto, L)))));

    // No fabricated pointers: a location unreachable before the call is
    // still unpointed after it (callees can only create pointers to
    // fresh cells or to cells they could reach).
    z3::expr NoNewPointers = z3::forall(
        M, z3::implies(M >= 0 && M < CallAlloc,
                       z3::select(CallSto, M) != LocV(L)));
    Out.Constraints.push_back(z3::implies(
        IsCall, z3::forall(L, z3::implies(L >= 0 && L < S.Alloc &&
                                              NotPointed,
                                          NoNewPointers))));

    // The post-call store is still well-formed w.r.t. the new allocator.
    Out.Constraints.push_back(z3::implies(
        IsCall,
        z3::forall(L, z3::implies(L >= 0 && L < CallAlloc &&
                                      IsLocV(z3::select(CallSto, L)),
                                  LVal(z3::select(CallSto, L)) >= 0 &&
                                      LVal(z3::select(CallSto, L)) <
                                          CallAlloc))));
  }

  return Out;
}

z3::expr Encoder::stateEq(const ZState &A, const ZState &B) {
  return A.Ix == B.Ix && A.Env == B.Env && A.Scope == B.Scope &&
         A.Sto == B.Sto && A.Alloc == B.Alloc;
}

//===----------------------------------------------------------------------===//
// Pattern terms.
//===----------------------------------------------------------------------===//

z3::expr Encoder::buildVar(const Var &X, MetaEnv &Env) {
  if (!X.IsMeta)
    return concreteVar(X.Name);
  if (X.isWildcard())
    return freshVar("wildV");
  auto It = Env.find(X.Name);
  if (It != Env.end())
    return It->second;
  z3::expr E = C.constant(("mv!" + X.Name).c_str(), VarS);
  AllVarConsts.push_back(E);
  Env.emplace(X.Name, E);
  return E;
}

z3::expr Encoder::buildIndex(const Index &I, MetaEnv &Env) {
  if (!I.IsMeta)
    return C.int_val(I.Value);
  if (I.isWildcard())
    return freshInt("wildI");
  auto It = Env.find(I.MetaName);
  if (It != Env.end())
    return It->second;
  z3::expr E = C.constant(("mi!" + I.MetaName).c_str(), C.int_sort());
  Env.emplace(I.MetaName, E);
  return E;
}

z3::expr Encoder::buildBase(const BaseExpr &B, MetaEnv &Env) {
  if (isVar(B)) {
    const Var &X = asVar(B);
    if (X.isWildcard())
      return C.constant(("wildB!" + std::to_string(FreshCounter++)).c_str(),
                        BaseS);
    return BVar(buildVar(X, Env));
  }
  const ConstVal &CV = asConst(B);
  if (!CV.IsMeta)
    return BConst(C.int_val(static_cast<int64_t>(CV.Value)));
  if (CV.isWildcard())
    return C.constant(("wildB!" + std::to_string(FreshCounter++)).c_str(),
                      BaseS);
  auto It = Env.find(CV.MetaName);
  if (It != Env.end())
    return BConst(It->second);
  z3::expr E = C.constant(("mc!" + CV.MetaName).c_str(), C.int_sort());
  Env.emplace(CV.MetaName, E);
  return BConst(E);
}

z3::expr Encoder::buildExpr(const Expr &E, MetaEnv &Env) {
  if (const auto *X = std::get_if<Var>(&E.V))
    return EBase(buildBase(BaseExpr(*X), Env));
  if (const auto *CV = std::get_if<ConstVal>(&E.V))
    return EBase(buildBase(BaseExpr(*CV), Env));
  if (const auto *D = std::get_if<DerefExpr>(&E.V))
    return EDeref(buildVar(D->Ptr, Env));
  if (const auto *A = std::get_if<AddrOfExpr>(&E.V))
    return EAddr(buildVar(A->Target, Env));
  if (const auto *O = std::get_if<OpExpr>(&E.V)) {
    z3::expr Op = O->Op == "_"
                      ? C.constant(("wildOp!" +
                                    std::to_string(FreshCounter++))
                                       .c_str(),
                                   OpS)
                      : opConst(O->Op, static_cast<unsigned>(O->Args.size()));
    if (O->Args.size() == 1)
      return EOp1(Op, buildBase(O->Args[0], Env));
    assert(O->Args.size() == 2 &&
           "the checker encodes operators of arity 1 and 2 (DESIGN.md)");
    return EOp2(Op, buildBase(O->Args[0], Env), buildBase(O->Args[1], Env));
  }
  const auto &M = std::get<MetaExpr>(E.V);
  if (M.isWildcard())
    return freshExpr("wildE");
  auto It = Env.find(M.Name);
  if (It != Env.end())
    return It->second;
  z3::expr Out = C.constant(("me!" + M.Name).c_str(), ExprS);
  Env.emplace(M.Name, Out);
  return Out;
}

z3::expr Encoder::buildLhs(const Lhs &L, MetaEnv &Env) {
  if (const auto *X = std::get_if<Var>(&L)) {
    if (X->isWildcard())
      return C.constant(("wildL!" + std::to_string(FreshCounter++)).c_str(),
                        LhsS);
    return LVarC(buildVar(*X, Env));
  }
  return LDerefC(buildVar(std::get<DerefExpr>(L).Ptr, Env));
}

z3::expr Encoder::buildStmt(const Stmt &S, MetaEnv &Env) {
  if (const auto *D = std::get_if<DeclStmt>(&S.V))
    return SDecl(buildVar(D->Name, Env));
  if (S.is<SkipStmt>())
    return SSkip();
  if (const auto *A = std::get_if<AssignStmt>(&S.V))
    return SAssign(buildLhs(A->Target, Env), buildExpr(A->Value, Env));
  if (const auto *N = std::get_if<NewStmt>(&S.V))
    return SNew(buildVar(N->Target, Env));
  if (const auto *CS = std::get_if<CallStmt>(&S.V)) {
    z3::expr P = CS->Callee.IsMeta
                     ? (CS->Callee.isWildcard()
                            ? freshProc("wildP")
                            : [&] {
                                auto It = Env.find(CS->Callee.Name);
                                if (It != Env.end())
                                  return It->second;
                                z3::expr E = C.constant(
                                    ("mp!" + CS->Callee.Name).c_str(), ProcS);
                                AllProcConsts.push_back(E);
                                Env.emplace(CS->Callee.Name, E);
                                return E;
                              }())
                     : concreteProc(CS->Callee.Name);
    return SCall(buildVar(CS->Target, Env), P, buildBase(CS->Arg, Env));
  }
  if (const auto *B = std::get_if<BranchStmt>(&S.V))
    return SBranch(buildBase(B->Cond, Env), buildIndex(B->Then, Env),
                   buildIndex(B->Else, Env));
  const auto &R = std::get<ReturnStmt>(S.V);
  return SReturn(buildVar(R.Value, Env));
}
