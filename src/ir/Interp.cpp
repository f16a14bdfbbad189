//===- Interp.cpp ---------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

#include "ir/Printer.h"
#include "support/FaultInjection.h"

using namespace cobalt;
using namespace cobalt::ir;

std::string Value::str() const {
  if (isInt())
    return std::to_string(Raw);
  return "loc(" + std::to_string(Raw) + ")";
}

std::string RunResult::str() const {
  switch (K) {
  case Kind::RK_Returned:
    return "returned " + Result.str();
  case Kind::RK_Stuck:
    return "stuck in '" + StuckProc + "' at " + std::to_string(StuckIndex) +
           ": " + StuckReason;
  case Kind::RK_OutOfFuel:
    return "out of fuel";
  }
  return "<invalid>";
}

std::optional<Value> ExecState::readVar(const std::string &Name) const {
  auto EIt = Env.find(Name);
  if (EIt == Env.end())
    return std::nullopt;
  auto SIt = Store.find(EIt->second);
  if (SIt == Store.end())
    return std::nullopt;
  return SIt->second;
}

bool Interpreter::stuck(const std::string &Reason) {
  StuckReason = Reason;
  return false;
}

static void setWhy(std::string *Why, const std::string &Reason) {
  if (Why)
    *Why = Reason;
}

std::optional<Value> ir::evalBaseIn(const ExecState &St, const BaseExpr &B,
                                    std::string *Why) {
  if (isConst(B)) {
    assert(!asConst(B).IsMeta && "evaluating a pattern fragment");
    return Value::intV(asConst(B).Value);
  }
  const Var &X = asVar(B);
  assert(!X.IsMeta && "evaluating a pattern fragment");
  auto V = St.readVar(X.Name);
  if (!V) {
    setWhy(Why, "use of undeclared variable '" + X.Name + "'");
    return std::nullopt;
  }
  return V;
}

std::optional<Value> Interpreter::evalBase(const ExecState &St,
                                           const BaseExpr &B) {
  std::string Why;
  auto V = evalBaseIn(St, B, &Why);
  if (!V)
    stuck(Why);
  return V;
}

std::optional<int64_t> ir::evalConstOp(const std::string &Op,
                                       const std::vector<int64_t> &Args) {
  if (Args.size() == 1) {
    int64_t A = Args[0];
    if (Op == "!")
      return A == 0 ? 1 : 0;
    if (Op == "-" || Op == "neg")
      return -A;
    return std::nullopt;
  }
  if (Args.size() == 2) {
    int64_t A = Args[0], B = Args[1];
    if (Op == "+")
      return A + B;
    if (Op == "-")
      return A - B;
    if (Op == "*")
      return A * B;
    if (Op == "/" || Op == "%") {
      if (B == 0)
        return std::nullopt; // division by zero: stuck
      return Op == "/" ? A / B : A % B;
    }
    if (Op == "==")
      return A == B ? 1 : 0;
    if (Op == "!=")
      return A != B ? 1 : 0;
    if (Op == "<")
      return A < B ? 1 : 0;
    if (Op == "<=")
      return A <= B ? 1 : 0;
    if (Op == ">")
      return A > B ? 1 : 0;
    if (Op == ">=")
      return A >= B ? 1 : 0;
    return std::nullopt;
  }
  return std::nullopt;
}

std::optional<Value> ir::evalExprIn(const ExecState &St, const Expr &E,
                                    std::string *Why) {
  if (const auto *X = std::get_if<Var>(&E.V))
    return evalBaseIn(St, BaseExpr(*X), Why);
  if (const auto *C = std::get_if<ConstVal>(&E.V))
    return evalBaseIn(St, BaseExpr(*C), Why);
  if (const auto *D = std::get_if<DerefExpr>(&E.V)) {
    auto P = evalBaseIn(St, BaseExpr(D->Ptr), Why);
    if (!P)
      return std::nullopt;
    if (!P->isLoc()) {
      setWhy(Why, "dereference of a non-pointer in *" + D->Ptr.Name);
      return std::nullopt;
    }
    auto It = St.Store.find(P->asLoc());
    if (It == St.Store.end()) {
      setWhy(Why, "dereference of an unallocated location");
      return std::nullopt;
    }
    return It->second;
  }
  if (const auto *A = std::get_if<AddrOfExpr>(&E.V)) {
    auto It = St.Env.find(A->Target.Name);
    if (It == St.Env.end()) {
      setWhy(Why, "address of undeclared variable '" + A->Target.Name + "'");
      return std::nullopt;
    }
    return Value::locV(It->second);
  }
  if (const auto *O = std::get_if<OpExpr>(&E.V)) {
    std::vector<int64_t> Args;
    Args.reserve(O->Args.size());
    for (const BaseExpr &B : O->Args) {
      auto V = evalBaseIn(St, B, Why);
      if (!V)
        return std::nullopt;
      if (!V->isInt()) {
        setWhy(Why, "operator '" + O->Op + "' applied to a pointer");
        return std::nullopt;
      }
      Args.push_back(V->asInt());
    }
    auto R = evalConstOp(O->Op, Args);
    if (!R) {
      setWhy(Why, "operator '" + O->Op + "'/" +
                      std::to_string(Args.size()) +
                      " has no result (unknown operator or division by "
                      "zero)");
      return std::nullopt;
    }
    return Value::intV(*R);
  }
  setWhy(Why, "evaluation of a pattern variable");
  return std::nullopt;
}

std::optional<Value> Interpreter::evalExpr(const ExecState &St,
                                           const Expr &E) {
  std::string Why;
  auto V = evalExprIn(St, E, &Why);
  if (!V)
    stuck(Why);
  return V;
}

std::optional<LocT> ir::evalLhsLocIn(const ExecState &St, const Lhs &L,
                                     std::string *Why) {
  if (const auto *X = std::get_if<Var>(&L)) {
    auto It = St.Env.find(X->Name);
    if (It == St.Env.end()) {
      setWhy(Why, "assignment to undeclared variable '" + X->Name + "'");
      return std::nullopt;
    }
    return It->second;
  }
  const Var &P = std::get<DerefExpr>(L).Ptr;
  auto V = St.readVar(P.Name);
  if (!V) {
    setWhy(Why, "store through undeclared variable '" + P.Name + "'");
    return std::nullopt;
  }
  if (!V->isLoc()) {
    setWhy(Why, "store through non-pointer in *" + P.Name);
    return std::nullopt;
  }
  if (!St.Store.count(V->asLoc())) {
    setWhy(Why, "store to an unallocated location");
    return std::nullopt;
  }
  return V->asLoc();
}

std::optional<LocT> Interpreter::evalLhsLoc(const ExecState &St,
                                            const Lhs &L) {
  std::string Why;
  auto V = evalLhsLocIn(St, L, &Why);
  if (!V)
    stuck(Why);
  return V;
}

ExecState Interpreter::initialState(int64_t Input) const {
  ExecState St;
  St.Proc = Prog.findProc("main");
  assert(St.Proc && "program has no main procedure");
  St.Index = 0;
  LocT ParamLoc = St.NextLoc++;
  St.Env[St.Proc->Param] = ParamLoc;
  St.Store[ParamLoc] = Value::intV(Input);
  return St;
}

StepResult Interpreter::step(ExecState &St) {
  // Fault-injection point: a forced stuck state, independent of the
  // statement. Lets tests exercise the "optimized program diverged"
  // branch of the pass manager's spot-check deterministically.
  if (support::faultFires(support::faults::InterpForceStuck)) {
    stuck("injected interpreter fault: forced stuck");
    return StepResult::SR_Stuck;
  }
  if (!St.Proc->isValidIndex(St.Index)) {
    stuck("control fell off the end of procedure '" + St.Proc->Name + "'");
    return StepResult::SR_Stuck;
  }
  const Stmt &S = St.Proc->stmtAt(St.Index);

  if (const auto *D = std::get_if<DeclStmt>(&S.V)) {
    // decl x: bind x to a fresh location. The fresh cell starts as the
    // integer 0 so execution is deterministic; the checker's axioms make
    // the same choice (see Encoder::encodeStep in checker/Encoder.cpp).
    LocT L = St.NextLoc++;
    St.Env[D->Name.Name] = L;
    St.Store[L] = Value::intV(0);
    ++St.Index;
    return StepResult::SR_Ok;
  }

  if (S.is<SkipStmt>()) {
    ++St.Index;
    return StepResult::SR_Ok;
  }

  if (const auto *A = std::get_if<AssignStmt>(&S.V)) {
    auto V = evalExpr(St, A->Value);
    if (!V)
      return StepResult::SR_Stuck;
    auto L = evalLhsLoc(St, A->Target);
    if (!L)
      return StepResult::SR_Stuck;
    St.Store[*L] = *V;
    ++St.Index;
    return StepResult::SR_Ok;
  }

  if (const auto *N = std::get_if<NewStmt>(&S.V)) {
    auto It = St.Env.find(N->Target.Name);
    if (It == St.Env.end()) {
      stuck("assignment to undeclared variable '" + N->Target.Name + "'");
      return StepResult::SR_Stuck;
    }
    LocT Fresh = St.NextLoc++;
    St.Store[Fresh] = Value::intV(0);
    St.Store[It->second] = Value::locV(Fresh);
    ++St.Index;
    return StepResult::SR_Ok;
  }

  if (const auto *C = std::get_if<CallStmt>(&S.V)) {
    const Procedure *Callee = Prog.findProc(C->Callee.Name);
    if (!Callee) {
      stuck("call to undefined procedure '" + C->Callee.Name + "'");
      return StepResult::SR_Stuck;
    }
    if (!St.Env.count(C->Target.Name)) {
      stuck("call result assigned to undeclared variable '" +
            C->Target.Name + "'");
      return StepResult::SR_Stuck;
    }
    auto Arg = evalBase(St, C->Arg);
    if (!Arg)
      return StepResult::SR_Stuck;
    St.Stack.push_back({St.Proc, std::move(St.Env), St.Index, C->Target});
    St.Proc = Callee;
    St.Index = 0;
    St.Env.clear();
    LocT ParamLoc = St.NextLoc++;
    St.Env[Callee->Param] = ParamLoc;
    St.Store[ParamLoc] = *Arg;
    return StepResult::SR_Ok;
  }

  if (const auto *B = std::get_if<BranchStmt>(&S.V)) {
    auto V = evalBase(St, B->Cond);
    if (!V)
      return StepResult::SR_Stuck;
    if (!V->isInt()) {
      stuck("branch on a pointer value");
      return StepResult::SR_Stuck;
    }
    St.Index = V->asInt() != 0 ? B->Then.Value : B->Else.Value;
    return StepResult::SR_Ok;
  }

  const auto &R = std::get<ReturnStmt>(S.V);
  auto V = St.readVar(R.Value.Name);
  if (!V) {
    stuck("return of undeclared variable '" + R.Value.Name + "'");
    return StepResult::SR_Stuck;
  }
  if (St.Stack.empty()) {
    ReturnVal = *V;
    return StepResult::SR_Returned;
  }
  Frame F = std::move(St.Stack.back());
  St.Stack.pop_back();
  St.Proc = F.Proc;
  St.Env = std::move(F.Env);
  auto TIt = St.Env.find(F.CallTarget.Name);
  if (TIt == St.Env.end()) {
    stuck("call result assigned to undeclared variable '" +
          F.CallTarget.Name + "'");
    return StepResult::SR_Stuck;
  }
  St.Store[TIt->second] = *V;
  St.Index = F.CallIndex + 1;
  return StepResult::SR_Ok;
}

StepResult Interpreter::stepOver(ExecState &St, uint64_t Fuel) {
  size_t Depth = St.Stack.size();
  StepResult R = step(St);
  if (R != StepResult::SR_Ok)
    return R;
  while (St.Stack.size() > Depth) {
    if (Fuel-- == 0) {
      stuck("out of fuel while stepping over a call");
      return StepResult::SR_Stuck;
    }
    R = step(St);
    if (R != StepResult::SR_Ok)
      return R;
  }
  return StepResult::SR_Ok;
}

RunResult Interpreter::run(int64_t Input, uint64_t Fuel) {
  std::vector<std::pair<std::string, int>> Ignored;
  (void)Ignored;
  ExecState St = initialState(Input);
  RunResult Out;
  Out.Steps = 0;
  while (true) {
    if (Out.Steps >= Fuel) {
      Out.K = RunResult::Kind::RK_OutOfFuel;
      return Out;
    }
    StepResult R = step(St);
    ++Out.Steps;
    if (R == StepResult::SR_Returned) {
      Out.K = RunResult::Kind::RK_Returned;
      Out.Result = ReturnVal;
      return Out;
    }
    if (R == StepResult::SR_Stuck) {
      Out.K = RunResult::Kind::RK_Stuck;
      Out.StuckReason = StuckReason;
      Out.StuckProc = St.Proc->Name;
      Out.StuckIndex = St.Index;
      return Out;
    }
  }
}

RunResult
Interpreter::runWithTrace(int64_t Input,
                          std::vector<std::pair<std::string, int>> &Trace,
                          uint64_t Fuel) {
  ExecState St = initialState(Input);
  RunResult Out;
  Out.Steps = 0;
  Trace.clear();
  Trace.emplace_back(St.Proc->Name, St.Index);
  while (true) {
    if (Out.Steps >= Fuel) {
      Out.K = RunResult::Kind::RK_OutOfFuel;
      return Out;
    }
    StepResult R = step(St);
    ++Out.Steps;
    if (R == StepResult::SR_Ok)
      Trace.emplace_back(St.Proc->Name, St.Index);
    if (R == StepResult::SR_Returned) {
      Out.K = RunResult::Kind::RK_Returned;
      Out.Result = ReturnVal;
      return Out;
    }
    if (R == StepResult::SR_Stuck) {
      Out.K = RunResult::Kind::RK_Stuck;
      Out.StuckReason = StuckReason;
      Out.StuckProc = St.Proc->Name;
      Out.StuckIndex = St.Index;
      return Out;
    }
  }
}
