//===- substitution_test.cpp ----------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Substitution.h"

#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <compare>
#include <set>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::ir;

namespace {

TEST(SubstitutionTest, BindAndLookup) {
  Substitution Theta;
  EXPECT_TRUE(Theta.empty());
  EXPECT_TRUE(Theta.bind("Y", Binding::var("a")));
  EXPECT_TRUE(Theta.bind("C", Binding::constant(2)));
  ASSERT_NE(Theta.lookup("Y"), nullptr);
  EXPECT_EQ(Theta.lookup("Y")->asVar(), "a");
  EXPECT_EQ(Theta.lookup("C")->asConst(), 2);
  EXPECT_EQ(Theta.lookup("Z"), nullptr);
  EXPECT_EQ(Theta.size(), 2u);
}

TEST(SubstitutionTest, RebindSameValueSucceeds) {
  Substitution Theta;
  EXPECT_TRUE(Theta.bind("X", Binding::var("a")));
  EXPECT_TRUE(Theta.bind("X", Binding::var("a")));
  EXPECT_EQ(Theta.size(), 1u);
}

TEST(SubstitutionTest, ConflictingRebindFails) {
  Substitution Theta;
  EXPECT_TRUE(Theta.bind("X", Binding::var("a")));
  EXPECT_FALSE(Theta.bind("X", Binding::var("b")));
  EXPECT_EQ(Theta.lookup("X")->asVar(), "a");
  // Different kinds conflict too.
  EXPECT_FALSE(Theta.bind("X", Binding::constant(1)));
}

TEST(SubstitutionTest, MergeDisjointAndConflicting) {
  Substitution A, B;
  A.bind("X", Binding::var("a"));
  B.bind("Y", Binding::constant(1));
  EXPECT_TRUE(A.merge(B));
  EXPECT_EQ(A.size(), 2u);

  Substitution C;
  C.bind("X", Binding::var("zzz"));
  EXPECT_FALSE(A.merge(C));
}

TEST(SubstitutionTest, OrderingIsTotalAndDeterministic) {
  Substitution A, B;
  A.bind("X", Binding::var("a"));
  B.bind("X", Binding::var("b"));
  std::set<Substitution> S{A, B, A};
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(A < B || B < A);
}

TEST(SubstitutionTest, ExprBindingsCompareStructurally) {
  Expr E1 = parseExprPatternOrDie("a + b");
  Expr E2 = parseExprPatternOrDie("a + b");
  Expr E3 = parseExprPatternOrDie("a + c");
  EXPECT_EQ(Binding::expr(E1), Binding::expr(E2));
  EXPECT_NE(Binding::expr(E1), Binding::expr(E3));
}

TEST(SubstitutionTest, StrRendersPaperNotation) {
  Substitution Theta;
  Theta.bind("Y", Binding::var("a"));
  Theta.bind("C", Binding::constant(2));
  EXPECT_EQ(Theta.str(), "[C -> 2, Y -> a]");
}

/// Bindings are kept in name order whatever order they were made in; the
/// engine's fact ids are ranks in the resulting <=> order, so these pin
/// that order down.
TEST(SubstitutionTest, BindOrderDoesNotMatter) {
  Substitution A, B;
  A.bind("Z", Binding::var("b"));
  A.bind("A", Binding::var("a"));
  A.bind("M", Binding::constant(3));
  B.bind("M", Binding::constant(3));
  B.bind("Z", Binding::var("b"));
  B.bind("A", Binding::var("a"));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A <=> B, std::strong_ordering::equal);
  EXPECT_EQ(A.str(), "[A -> a, M -> 3, Z -> b]");
  EXPECT_EQ(A.str(), B.str());

  std::vector<std::string> Names;
  for (const auto &[Name, Value] : B) {
    (void)Value;
    Names.push_back(Name);
  }
  EXPECT_EQ(Names, (std::vector<std::string>{"A", "M", "Z"}));
}

TEST(SubstitutionTest, OrderIsLexicographicOverNameThenBinding) {
  Substitution AZ, AM, A;
  AZ.bind("A", Binding::var("a"));
  AZ.bind("Z", Binding::var("b"));
  AM.bind("A", Binding::var("a"));
  AM.bind("M", Binding::var("c"));
  A.bind("A", Binding::var("a"));
  // {A->a, Z->b} vs {A->a, M->c}: first bindings tie, then "Z" > "M"
  // decides before the bound values are looked at.
  EXPECT_GT(AZ, AM);
  // A proper prefix sorts first.
  EXPECT_LT(A, AM);
  EXPECT_LT(A, AZ);

  // Same names: the binding decides (kind first, then value).
  Substitution Ab, Ac, A1;
  Ab.bind("A", Binding::var("b"));
  Ac.bind("A", Binding::var("c"));
  A1.bind("A", Binding::constant(1));
  EXPECT_LT(Ab, Ac);
  EXPECT_LT(Ac, A1); // var bindings sort before const bindings

  std::set<Substitution> Sorted{AZ, Ac, AM, A, Ab, A1};
  std::vector<std::string> Rendered;
  for (const Substitution &S : Sorted)
    Rendered.push_back(S.str());
  EXPECT_EQ(Rendered, (std::vector<std::string>{
                          "[A -> a]", "[A -> a, M -> c]", "[A -> a, Z -> b]",
                          "[A -> b]", "[A -> c]", "[A -> 1]"}));
}

TEST(SubstitutionTest, LookupBetweenBoundNamesIsNull) {
  Substitution Theta;
  Theta.bind("B", Binding::var("b"));
  Theta.bind("D", Binding::var("d"));
  Theta.bind("F", Binding::var("f"));
  EXPECT_EQ(Theta.lookup("A"), nullptr); // before the first
  EXPECT_EQ(Theta.lookup("C"), nullptr);
  EXPECT_EQ(Theta.lookup("E"), nullptr);
  EXPECT_EQ(Theta.lookup("G"), nullptr); // after the last
  EXPECT_EQ(Theta.lookup("Dx"), nullptr);
  ASSERT_NE(Theta.lookup("D"), nullptr);
  EXPECT_EQ(Theta.lookup("D")->asVar(), "d");
  EXPECT_FALSE(Theta.isBound("C"));
}

TEST(SubstitutionTest, BindingKindsAreDistinct) {
  EXPECT_NE(Binding::var("x"), Binding::proc("x"));
  EXPECT_NE(Binding::constant(0), Binding::index(0));
}

} // namespace
