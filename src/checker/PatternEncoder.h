//===- PatternEncoder.h - ψ and witness lowering to Z3 ----------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization-dependent half of the checker: translates guard
/// formulas, label definitions, and witnesses into Z3 terms (the paper's
/// automatically-generated "optimization-dependent axioms", §5.1).
///
/// Key idea: `case` expressions and `stmt(S)` literals become structural
/// conditions over the statement/expression datatypes, with arm-local
/// pattern variables bound to *accessor expressions* of the scrutinee —
/// no existential quantifiers are ever introduced, so formulas stay in
/// the decidable ground fragment (modulo the fixed background axioms).
///
/// Analysis labels (produced by pure analyses, §2.4) are opaque booleans
/// carrying one implication: if the label is present, the analysis's
/// witness holds of the state just before the statement. That is exactly
/// the meaning assigned to labels by §3.2.3, and it is what makes e.g.
/// mayDefPrecise provable: notTainted(Y) ⇒ notPointedTo(Y, η).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CHECKER_PATTERNENCODER_H
#define COBALT_CHECKER_PATTERNENCODER_H

#include "checker/Encoder.h"

#include <map>
#include <string>
#include <vector>

namespace cobalt {
namespace checker {

class PatternEncoder {
public:
  /// \p AnalysesByLabel maps analysis label names to their defining pure
  /// analyses (for the label-implies-witness hypotheses).
  PatternEncoder(Encoder &Enc, const LabelRegistry &Registry,
                 const std::map<std::string, const PureAnalysis *>
                     &AnalysesByLabel)
      : Enc(Enc), Registry(Registry), AnalysesByLabel(AnalysesByLabel) {}

  /// The condition "statement term \p St matches pattern \p Pattern",
  /// binding fresh named pattern variables in \p Env to accessor
  /// expressions of St. Wildcards constrain nothing.
  z3::expr matchStmtCond(const ir::Stmt &Pattern, const z3::expr &St,
                         MetaEnv &Env);
  z3::expr matchExprCond(const ir::Expr &Pattern, const z3::expr &E,
                         MetaEnv &Env);

  /// Encodes ι ⊨θ ψ for a symbolic statement \p St at pre-state \p Eta.
  /// Hypotheses contributed by analysis labels are appended to \p Hyps.
  z3::expr formula(const Formula &F, const z3::expr &St, const ZState &Eta,
                   MetaEnv &Env, std::vector<z3::expr> &Hyps);

  /// Encodes a witness over the given states (Cur for forward; Old/New
  /// for backward).
  z3::expr witness(const Witness &W, const ZState *Cur, const ZState *Old,
                   const ZState *New, MetaEnv &Env);

  /// Forgets the analysis-label booleans of the obligation encoded last
  /// (the companion of Encoder::resetObligation).
  void resetObligation() { AnalysisLabelBools.clear(); }

private:
  z3::expr matchBaseCond(const ir::BaseExpr &Pattern, const z3::expr &B,
                         MetaEnv &Env);
  z3::expr matchVarCond(const ir::Var &Pattern, const z3::expr &V,
                        MetaEnv &Env);
  z3::expr matchLhsCond(const ir::Lhs &Pattern, const z3::expr &L,
                        MetaEnv &Env);
  z3::expr computesCond(const z3::expr &E, const z3::expr &CVal);
  z3::expr termToZ3(const Term &T, const z3::expr &St, MetaEnv &Env);

  Encoder &Enc;
  const LabelRegistry &Registry;
  const std::map<std::string, const PureAnalysis *> &AnalysesByLabel;
  std::map<std::string, z3::expr> AnalysisLabelBools;
};

} // namespace checker
} // namespace cobalt

#endif // COBALT_CHECKER_PATTERNENCODER_H
