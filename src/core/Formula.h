//===- Formula.h - The Cobalt guard/label formula language ------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The formula language ψ of paper §3.2.2:
///
/// \code
///   ψ ::= true | false | ¬ψ | ψ ∨ ψ | ψ ∧ ψ
///       | l(t,…,t) | t = t
///       | case t of t ↦ ψ ⋯ t ↦ ψ else ↦ ψ endcase
/// \endcode
///
/// where t ranges over extended-IL fragments and the distinguished term
/// currStmt. Formulas are evaluated at CFG nodes under a substitution θ
/// (the relation ι ⊨θ ψ). Two evaluation modes are provided:
///
/// * evalFormula — complete check: every named pattern variable free in ψ
///   must be bound by θ (case arms may bind fresh arm-local variables).
/// * satisfyFormula — generative: enumerates the extensions of θ that make
///   ψ hold at the node. stmt(S) literals and analysis labels match
///   structurally; residual unbound variables are enumerated over the
///   procedure's fragment universe (pattern variables range over
///   "variables of the procedure being optimized" etc., paper Example 1).
///
/// Labels come in three flavours:
/// * builtin: stmt(S) (statement match) and computes(E, C) (E is a
///   constant-operand operator expression whose value is C — the hook
///   that lets constant folding be written as a rewrite rule);
/// * user predicate labels, defined by a formula over currStmt
///   (paper §2.1.3), e.g. mayDef / mayUse / unchanged;
/// * analysis labels, added to nodes by pure analyses (§2.4); their
///   ground instances live in a Labeling.
///
/// Case arms match in order; the first matching arm's body decides, and
/// arm patterns may bind fresh arm-local pattern variables (the paper's
/// "pattern variables and ellipses get desugared into ordinary quantified
/// variables").
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CORE_FORMULA_H
#define COBALT_CORE_FORMULA_H

#include "core/Substitution.h"
#include "ir/Ast.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

namespace cobalt {

//===----------------------------------------------------------------------===//
// Terms.
//===----------------------------------------------------------------------===//

/// The distinguished term currStmt.
struct CurrStmtTerm {
  friend bool operator==(const CurrStmtTerm &, const CurrStmtTerm &) {
    return true;
  }
};

/// t ::= currStmt | extended-IL expression | extended-IL statement.
using Term = std::variant<CurrStmtTerm, ir::Expr, ir::Stmt>;

/// Renders a term for diagnostics.
std::string toString(const Term &T);

/// The kind of fragment a pattern variable stands for.
enum class MetaKind { MK_Var, MK_Const, MK_Expr, MK_Proc, MK_Index };

/// Collects (name, kind) pairs for named pattern variables, first
/// occurrence order, no duplicates.
void collectMetaKinds(const ir::Expr &E,
                      std::vector<std::pair<std::string, MetaKind>> &Out);
void collectMetaKinds(const ir::Stmt &S,
                      std::vector<std::pair<std::string, MetaKind>> &Out);
void collectMetaKinds(const Term &T,
                      std::vector<std::pair<std::string, MetaKind>> &Out);

//===----------------------------------------------------------------------===//
// Formulas.
//===----------------------------------------------------------------------===//

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// One arm of a case: `pattern ↦ body`.
struct CaseArm {
  Term Pattern;
  FormulaPtr Body;
};

struct Formula {
  enum class Kind {
    FK_True,
    FK_False,
    FK_Not,
    FK_And,
    FK_Or,
    FK_Label,
    FK_Eq,
    FK_Case
  };
  Kind K;

  std::vector<FormulaPtr> Kids; ///< Not: 1 child; And/Or: 2+ children.

  std::string LabelName;  ///< FK_Label.
  std::vector<Term> Args; ///< FK_Label.

  Term LhsT, RhsT; ///< FK_Eq. FK_Case: LhsT is the scrutinee.

  std::vector<CaseArm> Arms; ///< FK_Case.
  FormulaPtr ElseBody;       ///< FK_Case.

  std::string str() const;
};

/// Constructors (value-style; formulas are immutable once built).
FormulaPtr fTrue();
FormulaPtr fFalse();
FormulaPtr fNot(FormulaPtr F);
FormulaPtr fAnd(FormulaPtr A, FormulaPtr B);
FormulaPtr fOr(FormulaPtr A, FormulaPtr B);
FormulaPtr fLabel(std::string Name, std::vector<Term> Args = {});
FormulaPtr fEq(Term A, Term B);
FormulaPtr fCase(Term Scrutinee, std::vector<CaseArm> Arms,
                 FormulaPtr ElseBody);

/// Collects the named pattern variables free in ψ (arm-local variables of
/// case patterns are *not* free).
void collectFreeMetas(const Formula &F,
                      std::vector<std::pair<std::string, MetaKind>> &Out);

class LabelRegistry;

/// Collects the analysis labels declared in \p Registry that ψ mentions,
/// directly or through the body of a registered predicate label, first
/// occurrence order, no duplicates. ψ reads the labeling through these
/// and only these.
void collectAnalysisLabels(const Formula &F, const LabelRegistry &Registry,
                           std::vector<std::string> &Out);

//===----------------------------------------------------------------------===//
// Labels.
//===----------------------------------------------------------------------===//

/// A ground (fully instantiated) label instance attached to a CFG node,
/// e.g. notTainted(a). Ordered so label sets are deterministic.
struct GroundLabel {
  std::string Name;
  std::vector<Binding> Args;

  std::string str() const;
  friend bool operator==(const GroundLabel &, const GroundLabel &) = default;
  friend auto operator<=>(const GroundLabel &A, const GroundLabel &B) {
    if (auto C = A.Name <=> B.Name; C != 0)
      return C;
    return A.Args <=> B.Args;
  }
};

/// The labeling L_p: per-node sets of ground labels produced by pure
/// analyses (§2.4, §3.2.3).
using Labeling = std::vector<std::set<GroundLabel>>;

/// A user predicate label definition (§2.1.3): a named formula over
/// currStmt with typed parameters.
struct LabelDef {
  std::string Name;
  std::vector<std::pair<std::string, MetaKind>> Params;
  FormulaPtr Body;
};

/// Resolves label names during evaluation. Builtins (stmt, computes) are
/// always present; user predicate labels are registered by name; any other
/// name is treated as an analysis label and looked up in the Labeling.
class LabelRegistry {
public:
  /// Registers a predicate label. Returns false if the name collides with
  /// a builtin or an existing definition.
  bool define(LabelDef Def);

  /// Declares a name as an analysis label (produced by a pure analysis).
  void declareAnalysisLabel(const std::string &Name);

  const LabelDef *findPredicate(const std::string &Name) const;
  bool isAnalysisLabel(const std::string &Name) const;
  static bool isBuiltin(const std::string &Name);

  /// All registered predicate definitions, in registration order (the
  /// checker translates these to axioms).
  const std::vector<LabelDef> &predicates() const { return Defs; }

private:
  std::vector<LabelDef> Defs;
  std::set<std::string> AnalysisLabels;
};

//===----------------------------------------------------------------------===//
// Evaluation.
//===----------------------------------------------------------------------===//

/// The fragment universe of a procedure: what pattern variables range
/// over when a formula does not determine them structurally.
struct Universe {
  std::vector<std::string> Vars;
  std::vector<int64_t> Consts;
  std::vector<ir::Expr> Exprs;
  std::vector<std::string> Procs;
  std::vector<int> Indices;
};

/// Builds the universe of fragments occurring in \p P.
Universe buildUniverse(const ir::Procedure &P);

/// Everything needed to decide ι ⊨θ ψ at one node.
struct NodeContext {
  const ir::Procedure *Proc = nullptr;
  int Index = 0;
  const LabelRegistry *Registry = nullptr;
  const Labeling *AnalysisLabeling = nullptr; ///< May be null (no analyses).
  const Universe *Univ = nullptr;

  const ir::Stmt &stmt() const { return Proc->stmtAt(Index); }
};

/// Complete check of ι ⊨θ ψ. Returns nullopt if ψ contains a named
/// pattern variable that θ leaves unbound (a mis-specified optimization;
/// callers surface this as an error rather than guessing).
std::optional<bool> evalFormula(const Formula &F, const NodeContext &Ctx,
                                const Substitution &Theta);

/// Generative satisfaction: all extensions of \p Theta binding exactly the
/// free variables of ψ (beyond those already bound) such that ι ⊨θ' ψ.
std::vector<Substitution> satisfyFormula(const Formula &F,
                                         const NodeContext &Ctx,
                                         const Substitution &Theta);

/// Evaluates a term under θ to a ground fragment. CurrStmt yields the
/// node's statement. Returns nullopt on unbound variables or wildcards.
std::optional<Term> evalTerm(const Term &T, const NodeContext &Ctx,
                             const Substitution &Theta);

/// Evaluates a label argument term to a Binding (var names and constants
/// become Var/Const bindings; other expressions become Expr bindings).
/// Statements are not valid label arguments.
std::optional<Binding> termToBinding(const Term &T, const NodeContext &Ctx,
                                     const Substitution &Theta);

} // namespace cobalt

#endif // COBALT_CORE_FORMULA_H
