//===- Substitution.h - Pattern-variable bindings ---------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A substitution θ maps pattern-variable names to program fragments of the
/// appropriate kind (paper §3.2.1/§3.2.2). Substitutions are the dataflow
/// facts of the execution engine (§5.2) and the instantiation witnesses of
/// guard satisfaction, so they are small value types with a total order
/// (for storage in ordered sets, which keeps fixed points deterministic).
///
/// The bindings live in one vector sorted by name: iteration, ==, and <=>
/// follow the same lexicographic (name, binding) order a
/// std::map<std::string, Binding> would give, while copying θ — which
/// matching and generative satisfaction do once per candidate — costs one
/// allocation rather than one per binding. The engine's fact ids are
/// ranks in this order (engine/Dataflow.h).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CORE_SUBSTITUTION_H
#define COBALT_CORE_SUBSTITUTION_H

#include "ir/Ast.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace cobalt {

/// What a pattern variable is bound to. The five binding kinds mirror the
/// five pattern-variable kinds of the extended IL: Vars, Consts, Exprs,
/// Proc Names, and Indices.
struct Binding {
  struct VarB {
    std::string Name;
    auto operator<=>(const VarB &) const = default;
  };
  struct ConstB {
    int64_t Value;
    auto operator<=>(const ConstB &) const = default;
  };
  struct ProcB {
    std::string Name;
    auto operator<=>(const ProcB &) const = default;
  };
  struct IndexB {
    int Value;
    auto operator<=>(const IndexB &) const = default;
  };
  // Exprs bindings hold a *ground* expression; ir::Expr has no operator<
  // so ExprB carries a rendered key for ordering plus the expression.
  struct ExprB {
    ir::Expr E;
    std::string Key; ///< Canonical rendering of E, used for ordering.
    friend bool operator==(const ExprB &A, const ExprB &B) {
      return A.E == B.E;
    }
    friend auto operator<=>(const ExprB &A, const ExprB &B) {
      return A.Key <=> B.Key;
    }
  };

  using Storage = std::variant<VarB, ConstB, ExprB, ProcB, IndexB>;
  Storage V;

  static Binding var(std::string Name);
  static Binding constant(int64_t Value);
  static Binding expr(ir::Expr E); ///< E must be ground.
  static Binding proc(std::string Name);
  static Binding index(int Value);

  bool isVar() const { return std::holds_alternative<VarB>(V); }
  bool isConst() const { return std::holds_alternative<ConstB>(V); }
  bool isExpr() const { return std::holds_alternative<ExprB>(V); }
  bool isProc() const { return std::holds_alternative<ProcB>(V); }
  bool isIndex() const { return std::holds_alternative<IndexB>(V); }

  const std::string &asVar() const { return std::get<VarB>(V).Name; }
  int64_t asConst() const { return std::get<ConstB>(V).Value; }
  const ir::Expr &asExpr() const { return std::get<ExprB>(V).E; }
  const std::string &asProc() const { return std::get<ProcB>(V).Name; }
  int asIndex() const { return std::get<IndexB>(V).Value; }

  /// Renders the binding as IL text.
  std::string str() const;

  friend bool operator==(const Binding &, const Binding &) = default;
  friend auto operator<=>(const Binding &A, const Binding &B) {
    return A.V <=> B.V;
  }
};

/// A (partial) substitution θ. Binding the same name twice to different
/// values fails — matching uses this to enforce nonlinear patterns like
/// `X := op(X, X)`.
class Substitution {
public:
  /// Returns the binding for \p Name, or nullptr if unbound.
  const Binding *lookup(const std::string &Name) const;

  bool isBound(const std::string &Name) const { return lookup(Name); }

  /// Binds \p Name to \p B. Returns false (and leaves θ unchanged) if
  /// Name is already bound to a different value.
  bool bind(const std::string &Name, Binding B);

  /// Merges another substitution into this one; fails on conflicts.
  bool merge(const Substitution &Other);

  size_t size() const { return Bindings.size(); }
  bool empty() const { return Bindings.empty(); }

  /// Iterates (name, binding) pairs in name order.
  auto begin() const { return Bindings.begin(); }
  auto end() const { return Bindings.end(); }

  /// Renders as "[X -> a, C -> 2]" (paper §5.2 notation).
  std::string str() const;

  friend bool operator==(const Substitution &, const Substitution &) = default;
  friend auto operator<=>(const Substitution &A, const Substitution &B) {
    return A.Bindings <=> B.Bindings;
  }

private:
  /// Sorted by name, names unique.
  std::vector<std::pair<std::string, Binding>> Bindings;
};

} // namespace cobalt

#endif // COBALT_CORE_SUBSTITUTION_H
