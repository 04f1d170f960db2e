#include "constraint/conjunction.h"

#include <gtest/gtest.h>

namespace ccdb {
namespace {

LinearExpr X() { return LinearExpr::Variable("x"); }
LinearExpr Y() { return LinearExpr::Variable("y"); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

TEST(ConjunctionTest, EmptyIsTrue) {
  Conjunction c;
  EXPECT_TRUE(c.IsTriviallyTrue());
  EXPECT_FALSE(c.IsKnownFalse());
  EXPECT_EQ(c.ToString(), "true");
  EXPECT_TRUE(c.IsSatisfiedBy({}));
}

TEST(ConjunctionTest, FalseIsFalse) {
  Conjunction f = Conjunction::False();
  EXPECT_TRUE(f.IsKnownFalse());
  EXPECT_FALSE(f.IsTriviallyTrue());
  EXPECT_EQ(f.ToString(), "false");
  EXPECT_FALSE(f.IsSatisfiedBy({}));
}

TEST(ConjunctionTest, AddDropsTriviallyTrue) {
  Conjunction c;
  c.Add(Constraint::Le(C(-1), C(0)));
  EXPECT_TRUE(c.IsTriviallyTrue());
  EXPECT_EQ(c.size(), 0u);
}

TEST(ConjunctionTest, AddCollapsesOnTriviallyFalse) {
  Conjunction c;
  c.Add(Constraint::Le(X(), C(1)));
  c.Add(Constraint::Le(C(1), C(0)));
  EXPECT_TRUE(c.IsKnownFalse());
  EXPECT_EQ(c.size(), 0u) << "collapse must clear members";
  // Further adds are ignored.
  c.Add(Constraint::Le(X(), C(9)));
  EXPECT_TRUE(c.IsKnownFalse());
}

TEST(ConjunctionTest, AddDeduplicatesCanonicalForms) {
  Conjunction c;
  c.Add(Constraint::Le(X() * Rational(2), C(6)));
  c.Add(Constraint::Le(X(), C(3)));  // same canonical constraint
  EXPECT_EQ(c.size(), 1u);
}

TEST(ConjunctionTest, KeepsTheTightestBoundPerVariableAndSide) {
  Conjunction c;
  c.Add(Constraint::Ge(X(), C(0)));
  c.Add(Constraint::Ge(X(), C(2)));  // tighter: replaces x >= 0
  c.Add(Constraint::Le(X(), C(8)));
  c.Add(Constraint::Le(X(), C(2)));  // tighter: replaces x <= 8
  c.Add(Constraint::Le(X(), C(5)));  // implied by x <= 2: dropped
  c.Add(Constraint::Ge(Y(), C(-1)));  // another variable: kept
  EXPECT_EQ(c.ToString(), "-x <= -2 AND x <= 2 AND -y <= 1");
  // The same members in another order leave the same store.
  Conjunction d({Constraint::Le(X(), C(5)), Constraint::Le(X(), C(2)),
                 Constraint::Ge(Y(), C(-1)), Constraint::Le(X(), C(8)),
                 Constraint::Ge(X(), C(2)), Constraint::Ge(X(), C(0))});
  EXPECT_EQ(c, d);
}

TEST(ConjunctionTest, StrictIsTighterAtEqualBounds) {
  Conjunction c({Constraint::Le(X(), C(3)), Constraint::Lt(X(), C(3))});
  EXPECT_EQ(c.ToString(), "x < 3");
  Conjunction d({Constraint::Gt(X(), C(3)), Constraint::Ge(X(), C(3))});
  EXPECT_EQ(d.ToString(), "-x < -3");
  // A strict bound further out loses to a closed one further in.
  Conjunction e({Constraint::Lt(X(), C(4)), Constraint::Le(X(), C(3))});
  EXPECT_EQ(e.ToString(), "x <= 3");
}

TEST(ConjunctionTest, FractionalBoundsCompareExactly) {
  // 2x <= 3 (x <= 3/2) against x <= 2, and -3x <= -4 (x >= 4/3) against
  // x >= 1, in both orders.
  const Constraint x_le_3_2 = Constraint::Le(X() * Rational(2), C(3));
  const Constraint x_ge_4_3 = Constraint::Ge(X() * Rational(3), C(4));
  for (bool tight_first : {true, false}) {
    Conjunction c;
    if (tight_first) {
      c.Add(x_le_3_2);
      c.Add(x_ge_4_3);
    }
    c.Add(Constraint::Le(X(), C(2)));
    c.Add(Constraint::Ge(X(), C(1)));
    if (!tight_first) {
      c.Add(x_le_3_2);
      c.Add(x_ge_4_3);
    }
    EXPECT_EQ(c, Conjunction({x_le_3_2, x_ge_4_3})) << c.ToString();
  }
}

TEST(ConjunctionTest, EqualitiesAndMultiVariableMembersAreKept) {
  // The rule reads single-variable inequalities only: an equality on x,
  // a member over x and y, and bounds they imply all stay.
  Conjunction c({Constraint::Eq(X(), C(1)), Constraint::Le(X(), C(4)),
                 Constraint::Le(X() + Y(), C(2)),
                 Constraint::Le(X() + Y(), C(5)), Constraint::Ge(X(), C(0))});
  EXPECT_EQ(c.size(), 5u) << c.ToString();
}

TEST(ConjunctionTest, SatisfactionRequiresAllMembers) {
  Conjunction c;
  c.Add(Constraint::Le(X(), C(5)));
  c.Add(Constraint::Ge(X(), C(2)));
  EXPECT_TRUE(c.IsSatisfiedBy({{"x", Rational(3)}}));
  EXPECT_TRUE(c.IsSatisfiedBy({{"x", Rational(2)}}));
  EXPECT_TRUE(c.IsSatisfiedBy({{"x", Rational(5)}}));
  EXPECT_FALSE(c.IsSatisfiedBy({{"x", Rational(6)}}));
  EXPECT_FALSE(c.IsSatisfiedBy({{"x", Rational(1)}}));
}

TEST(ConjunctionTest, AndMergesBoth) {
  Conjunction a;
  a.Add(Constraint::Le(X(), C(5)));
  Conjunction b;
  b.Add(Constraint::Le(Y(), C(2)));
  Conjunction both = Conjunction::And(a, b);
  EXPECT_EQ(both.size(), 2u);
  EXPECT_EQ(both.Variables(), (std::set<std::string>{"x", "y"}));
}

TEST(ConjunctionTest, AddAllOfItselfLeavesTheStoreUnchanged) {
  // The walk over `other` is a walk over the vector `Add` inserts into.
  Conjunction store;
  store.Add(Constraint::Le(X(), C(5)));
  store.Add(Constraint::Ge(X(), C(1)));
  store.Add(Constraint::Le(X() + Y(), C(7)));
  store.Add(Constraint::Eq(Y() - X(), C(2)));
  const Conjunction before = store;
  store.AddAll(store);
  EXPECT_EQ(store, before);
  EXPECT_EQ(store.ToString(), before.ToString());
  Conjunction known_false = Conjunction::False();
  known_false.AddAll(known_false);
  EXPECT_TRUE(known_false.IsKnownFalse());
}

TEST(ConjunctionTest, AndWithFalseIsFalse) {
  Conjunction a;
  a.Add(Constraint::Le(X(), C(5)));
  EXPECT_TRUE(Conjunction::And(a, Conjunction::False()).IsKnownFalse());
  EXPECT_TRUE(Conjunction::And(Conjunction::False(), a).IsKnownFalse());
}

TEST(ConjunctionTest, SubstituteAllMembers) {
  Conjunction c;
  c.Add(Constraint::Le(X() + Y(), C(4)));
  c.Add(Constraint::Ge(Y(), C(1)));
  Conjunction sub = c.Substitute("y", X());
  // Becomes 2x <= 4 AND x >= 1.
  EXPECT_TRUE(sub.IsSatisfiedBy({{"x", Rational(2)}}));
  EXPECT_FALSE(sub.IsSatisfiedBy({{"x", Rational(3)}}));
  EXPECT_FALSE(sub.IsSatisfiedBy({{"x", Rational(0)}}));
  EXPECT_FALSE(sub.Mentions("y"));
}

TEST(ConjunctionTest, SubstituteCanCollapseToFalse) {
  Conjunction c;
  c.Add(Constraint::Lt(X(), Y()));
  Conjunction sub = c.Substitute("y", X());  // x < x
  EXPECT_TRUE(sub.IsKnownFalse());
}

TEST(ConjunctionTest, RenameVariable) {
  Conjunction c;
  c.Add(Constraint::Le(X(), C(5)));
  Conjunction renamed = c.RenameVariable("x", "t");
  EXPECT_TRUE(renamed.Mentions("t"));
  EXPECT_FALSE(renamed.Mentions("x"));
}

TEST(ConjunctionTest, ConstructorFromVector) {
  Conjunction c({Constraint::Le(X(), C(5)), Constraint::Ge(X(), C(2))});
  EXPECT_EQ(c.size(), 2u);
}

TEST(ConjunctionTest, ToStringJoinsWithAnd) {
  Conjunction c;
  c.Add(Constraint::Eq(X(), C(1)));
  c.Add(Constraint::Le(Y(), C(2)));
  EXPECT_EQ(c.ToString(), "x = 1 AND y <= 2");
}

TEST(ConjunctionTest, EqualityAndOrdering) {
  Conjunction a({Constraint::Le(X(), C(5))});
  Conjunction b({Constraint::Le(X() * Rational(3), C(15))});
  EXPECT_EQ(a, b) << "canonicalization makes syntactic equality semantic here";
  Conjunction c({Constraint::Le(X(), C(6))});
  EXPECT_NE(a, c);
  EXPECT_TRUE((a < c) != (c < a));
}

}  // namespace
}  // namespace ccdb
