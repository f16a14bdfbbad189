//===- Substitution.cpp ---------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Substitution.h"

#include "ir/Printer.h"

#include <algorithm>
#include <cassert>

using namespace cobalt;

Binding Binding::var(std::string Name) { return {VarB{std::move(Name)}}; }
Binding Binding::constant(int64_t Value) { return {ConstB{Value}}; }
Binding Binding::proc(std::string Name) { return {ProcB{std::move(Name)}}; }
Binding Binding::index(int Value) { return {IndexB{Value}}; }

Binding Binding::expr(ir::Expr E) {
  assert(ir::isGround(E) && "Exprs bindings must be ground");
  std::string Key = ir::toString(E);
  return {ExprB{std::move(E), std::move(Key)}};
}

std::string Binding::str() const {
  if (isVar())
    return asVar();
  if (isConst())
    return std::to_string(asConst());
  if (isExpr())
    return std::get<ExprB>(V).Key;
  if (isProc())
    return asProc();
  return std::to_string(asIndex());
}

/// The first binding whose name is not less than \p Name.
static auto lowerBound(const std::vector<std::pair<std::string, Binding>> &V,
                       const std::string &Name) {
  return std::lower_bound(
      V.begin(), V.end(), Name,
      [](const auto &Entry, const std::string &N) { return Entry.first < N; });
}

const Binding *Substitution::lookup(const std::string &Name) const {
  auto It = lowerBound(Bindings, Name);
  return It != Bindings.end() && It->first == Name ? &It->second : nullptr;
}

bool Substitution::bind(const std::string &Name, Binding B) {
  assert(!Name.empty() && "binding a wildcard");
  auto It = lowerBound(Bindings, Name);
  if (It != Bindings.end() && It->first == Name)
    return It->second == B;
  Bindings.emplace(It, Name, std::move(B));
  return true;
}

bool Substitution::merge(const Substitution &Other) {
  for (const auto &[Name, B] : Other.Bindings)
    if (!bind(Name, B))
      return false;
  return true;
}

std::string Substitution::str() const {
  std::string Out = "[";
  bool First = true;
  for (const auto &[Name, B] : Bindings) {
    if (!First)
      Out += ", ";
    First = false;
    Out += Name + " -> " + B.str();
  }
  return Out + "]";
}
