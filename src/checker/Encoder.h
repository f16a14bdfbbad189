//===- Encoder.h - Z3 encoding of the IL semantics --------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization-independent half of the soundness checker (paper
/// §5.1): a Z3 encoding of the intermediate language and its semantics.
/// The paper used the Simplify prover; Z3 is its direct descendant (see
/// DESIGN.md), and the encoding mirrors the paper's:
///
/// * term constructors for every kind of expression and statement
///   (Z3 algebraic datatypes instead of Simplify's uninterpreted function
///   symbols, which buys us free case analysis and injectivity);
/// * execution states as tuples (ι, ρ, σ, ξ, M) — index, environment
///   (array Var→Loc), scope set (array Var→Bool, making "variables in
///   scope" explicit), store (array Loc→Value), and the bump allocator
///   (an integer; freshness is arithmetic);
/// * evalExpr / evalLExpr denotations with explicit *definedness*
///   (run-time errors are the absence of transitions, §3.1);
/// * step functions per statement kind (stepIndex/stepEnv/stepStore/
///   stepAlloc in the paper's terminology), with the intraprocedural ↪π
///   treatment of calls axiomatized by the conservative call contract:
///   the store after a call preserves every caller location that is not
///   pointed-to before the call (the paper's "primary axiom"), pointers
///   to unreached locations are never fabricated, allocation only grows,
///   and the environment is restored.
///
/// States appearing in obligations are Skolem constants; quantifiers only
/// occur inside well-formedness, the call contract, and notPointedTo.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CHECKER_ENCODER_H
#define COBALT_CHECKER_ENCODER_H

#include "core/Formula.h"
#include "core/Optimization.h"
#include "core/Witness.h"
#include "ir/Ast.h"

#include <z3++.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cobalt {
namespace checker {

/// A symbolic execution state η = (ι, ρ, scope, σ, M).
struct ZState {
  z3::expr Ix;    ///< Int — statement index ι.
  z3::expr Env;   ///< Array(VarS, Int) — ρ.
  z3::expr Scope; ///< Array(VarS, Bool) — "variables in scope".
  z3::expr Sto;   ///< Array(Int, ValueS) — σ.
  z3::expr Alloc; ///< Int — the bump allocator M (next fresh location).
};

/// A value with its definedness condition (partial denotations).
struct ZEval {
  z3::expr Val;
  z3::expr Defined;
};

/// The result of encoding one step η → η' executing a statement: the
/// definedness condition, the post-state (component expressions), and
/// side constraints (the call contract's Skolemized frame axioms).
struct ZStep {
  z3::expr Defined;
  ZState Post;
  std::vector<z3::expr> Constraints;
};

/// Maps pattern-variable names to their Z3 constants (Vars → VarS,
/// Consts → Int, Exprs → ExprS, Procs → ProcS, Indices → Int).
using MetaEnv = std::map<std::string, z3::expr>;

class Encoder {
public:
  explicit Encoder(z3::context &C);

  z3::context &ctx() { return C; }

  //===--------------------------------------------------------------------===//
  // Sorts and constructors (public: obligations and tests inspect them).
  //===--------------------------------------------------------------------===//

  z3::sort VarS;   ///< Uninterpreted sort of variable names.
  z3::sort ProcS;  ///< Uninterpreted sort of procedure names.
  z3::sort OpS;    ///< Uninterpreted sort of operator names.
  z3::sort ValueS; ///< IntV(Int) | LocV(Int).
  z3::sort BaseS;  ///< BVar(VarS) | BConst(Int).
  z3::sort ExprS;  ///< EBase | EDeref | EAddr | EOp1 | EOp2.
  z3::sort LhsS;   ///< LVar | LDeref.
  z3::sort StmtS;  ///< SDecl | SSkip | SAssign | SNew | SCall | SBranch
                   ///< | SReturn.

  // Value.
  z3::func_decl IntV, LocV, IsIntV, IsLocV, IVal, LVal;
  // Base.
  z3::func_decl BVar, BConst, IsBVar, IsBConst, BVarName, BConstVal;
  // Expr.
  z3::func_decl EBase, EDeref, EAddr, EOp1, EOp2;
  z3::func_decl IsEBase, IsEDeref, IsEAddr, IsEOp1, IsEOp2;
  z3::func_decl EBaseB, EDerefVar, EAddrVar;
  z3::func_decl EOp1Op, EOp1Arg, EOp2Op, EOp2A, EOp2B;
  // Lhs.
  z3::func_decl LVarC, LDerefC, IsLVar, IsLDeref, LVarName, LDerefVar;
  // Stmt.
  z3::func_decl SDecl, SSkip, SAssign, SNew, SCall, SBranch, SReturn;
  z3::func_decl IsSDecl, IsSSkip, IsSAssign, IsSNew, IsSCall, IsSBranch,
      IsSReturn;
  z3::func_decl SDeclVar, SAssignLhs, SAssignRhs, SNewVar;
  z3::func_decl SCallTgt, SCallProc, SCallArg;
  z3::func_decl SBranchCond, SBranchThen, SBranchElse, SReturnVar;

  // Operator semantics (uninterpreted, constrained by background axioms
  // for the known operators).
  z3::func_decl ApplyOp1, ApplyOp2, DefinedOp1, DefinedOp2;

  // The post-call store/allocator as *functions* of the pre-state and the
  // call statement. The concrete ↪π is deterministic, so identical
  // pre-states calling the same statement reach identical post-states;
  // modelling the call effect functionally gives the prover that fact by
  // congruence while the conservative contract (asserted per
  // application) keeps everything else unconstrained.
  z3::func_decl CallStoF, CallAllocF;

  //===--------------------------------------------------------------------===//
  // Background.
  //===--------------------------------------------------------------------===//

  /// Asserts the optimization-independent axioms: addOperatorAxioms, then
  /// addDistinctnessAxioms. Call after building all pattern terms for an
  /// obligation.
  void addBackgroundAxioms(z3::solver &S);

  /// The quantified semantics of the known operators. They mention only
  /// the world's operator constants, so a checker asserts them once, at
  /// the base level of a solver that proves many obligations.
  void addOperatorAxioms(z3::solver &S);

  /// Only the quantifier-free distinctness axioms (named operators,
  /// concrete variable/procedure names). Each obligation asserts its own;
  /// the counterexample search asserts them without the quantified
  /// operator semantics, which would block model construction (its
  /// counterexample contexts are diagnostic: operator symbols may be
  /// under-constrained in them).
  void addDistinctnessAxioms(z3::solver &S);

  /// Forgets the constants of the obligation encoded last: concrete and
  /// fresh names, state allocators and the fresh-name counter, so the
  /// next obligation encoded in this context sees none of them. Sorts,
  /// datatypes and operator constants belong to the context and stay.
  void resetObligation();

  /// The OpS constant for a known operator spelling and arity.
  z3::expr opConst(const std::string &Spelling, unsigned Arity);

  /// The VarS constant for a *concrete* program variable name (distinct
  /// from every other concrete name; free pattern variables instead get
  /// fresh unconstrained constants via freshVar()).
  z3::expr concreteVar(const std::string &Name);
  z3::expr concreteProc(const std::string &Name);

  z3::expr freshVar(const std::string &Hint);
  z3::expr freshExpr(const std::string &Hint);
  z3::expr freshProc(const std::string &Hint);
  z3::expr freshInt(const std::string &Hint);
  z3::expr freshStmt(const std::string &Hint);
  z3::expr freshBool(const std::string &Hint);
  z3::expr freshBase(const std::string &Hint);
  z3::expr freshLhs(const std::string &Hint);

  //===--------------------------------------------------------------------===//
  // States and semantics.
  //===--------------------------------------------------------------------===//

  /// A fresh symbolic state.
  ZState freshState(const std::string &Prefix);

  /// Domain-closure assumptions for counterexample search: every value
  /// of the uninterpreted sorts equals one of the constants this encoder
  /// created (plus one spare). A model of the obligation's negation under
  /// these extra constraints is still a genuine counterexample; they only
  /// help Z3 finish model building in the presence of the quantified
  /// well-formedness hypotheses.
  std::vector<z3::expr> domainClosure();

  /// Well-formedness of a state: in-scope variables map to distinct
  /// allocated locations; stored location values are allocated.
  z3::expr wf(const ZState &S);

  /// Quantifier-free well-formedness for counterexample search: the same
  /// conditions instantiated over the named variable constants and the
  /// bounded location range used by domainClosure(). Only meaningful
  /// together with domainClosure(); under those constraints it is
  /// equivalent to wf(), so models remain genuine counterexamples.
  z3::expr wfBounded(const ZState &S);

  /// notPointedTo(l, η): no allocated cell of η holds LocV(l).
  z3::expr notPointedToLoc(const ZState &S, const z3::expr &Loc);

  /// Denotations. \p B / \p E / \p L are ExprS/BaseS/LhsS-sorted terms
  /// (possibly symbolic).
  ZEval evalBase(const ZState &S, const z3::expr &B);
  ZEval evalExpr(const ZState &S, const z3::expr &E);
  ZEval evalLhsLoc(const ZState &S, const z3::expr &L);

  /// Encodes one intraprocedural step executing \p St from \p S.
  /// Returns are not intraprocedural transitions (Defined is false for
  /// them); calls produce Skolemized post-stores constrained by the
  /// conservative call contract. \p Prefix names the Skolem constants.
  ZStep encodeStep(const ZState &S, const z3::expr &St,
                   const std::string &Prefix);

  /// Component-wise state equality.
  z3::expr stateEq(const ZState &A, const ZState &B);

  //===--------------------------------------------------------------------===//
  // Pattern terms → Z3 terms.
  //===--------------------------------------------------------------------===//

  /// Build Z3 terms from (extended-) IL fragments. Named pattern
  /// variables resolve through \p Env (created on first use with the
  /// appropriate sort); wildcards become fresh unconstrained constants.
  z3::expr buildVar(const ir::Var &X, MetaEnv &Env);
  z3::expr buildBase(const ir::BaseExpr &B, MetaEnv &Env);
  z3::expr buildExpr(const ir::Expr &E, MetaEnv &Env);
  z3::expr buildLhs(const ir::Lhs &L, MetaEnv &Env);
  z3::expr buildStmt(const ir::Stmt &S, MetaEnv &Env);
  z3::expr buildIndex(const ir::Index &I, MetaEnv &Env);

private:
  void buildSorts();

  z3::context &C;
  std::map<std::string, z3::expr> OpConsts;
  // Per-obligation tables (resetObligation clears them).
  std::map<std::string, z3::expr> ConcreteVars;
  std::map<std::string, z3::expr> ConcreteProcs;
  std::vector<z3::expr> AllVarConsts;  ///< Every VarS constant created.
  std::vector<z3::expr> AllProcConsts; ///< Every ProcS constant created.
  std::vector<z3::expr> AllAllocs;     ///< Allocator constants of states.
  unsigned FreshCounter = 0;

  // Declared lazily in buildSorts; stored here so member func_decls can
  // be value-initialized in the constructor initializer list.
};

} // namespace checker
} // namespace cobalt

#endif // COBALT_CHECKER_ENCODER_H
