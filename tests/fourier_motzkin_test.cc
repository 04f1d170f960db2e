#include "constraint/fourier_motzkin.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ccdb {
namespace {

LinearExpr V(const std::string& name) { return LinearExpr::Variable(name); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

// --- EliminateVariable -----------------------------------------------------

TEST(FourierMotzkinTest, EliminateBetweenBounds) {
  // 1 <= x AND x <= y  =>  (exists x)  gives  1 <= y.
  Conjunction c({Constraint::Ge(V("x"), C(1)), Constraint::Le(V("x"), V("y"))});
  Conjunction out = fm::EliminateVariable(c, "x");
  EXPECT_FALSE(out.Mentions("x"));
  EXPECT_TRUE(out.IsSatisfiedBy({{"y", Rational(1)}}));
  EXPECT_FALSE(out.IsSatisfiedBy({{"y", Rational(0)}}));
}

TEST(FourierMotzkinTest, EliminatePreservesStrictness) {
  // 1 < x AND x <= y  =>  1 < y.
  Conjunction c({Constraint::Gt(V("x"), C(1)), Constraint::Le(V("x"), V("y"))});
  Conjunction out = fm::EliminateVariable(c, "x");
  EXPECT_FALSE(out.IsSatisfiedBy({{"y", Rational(1)}}));
  EXPECT_TRUE(out.IsSatisfiedBy({{"y", Rational(2)}}));
}

TEST(FourierMotzkinTest, EliminateUnboundedSideDropsConstraints) {
  // x >= y alone: eliminating x leaves "true" (x can always be large).
  Conjunction c({Constraint::Ge(V("x"), V("y"))});
  Conjunction out = fm::EliminateVariable(c, "x");
  EXPECT_TRUE(out.IsTriviallyTrue());
}

TEST(FourierMotzkinTest, EliminateAbsentVariableIsIdentity) {
  Conjunction c({Constraint::Le(V("y"), C(3))});
  EXPECT_EQ(fm::EliminateVariable(c, "x"), c);
}

TEST(FourierMotzkinTest, EliminateViaEqualitySubstitution) {
  // x = 2y AND x <= 6  =>  2y <= 6, i.e. y <= 3.
  Conjunction c({Constraint::Eq(V("x"), V("y") * Rational(2)),
                 Constraint::Le(V("x"), C(6))});
  Conjunction out = fm::EliminateVariable(c, "x");
  EXPECT_FALSE(out.Mentions("x"));
  EXPECT_TRUE(out.IsSatisfiedBy({{"y", Rational(3)}}));
  EXPECT_FALSE(out.IsSatisfiedBy({{"y", Rational(4)}}));
}

TEST(FourierMotzkinTest, EliminateDetectsContradiction) {
  // x <= 1 AND x >= 2.
  Conjunction c({Constraint::Le(V("x"), C(1)), Constraint::Ge(V("x"), C(2))});
  Conjunction out = fm::EliminateVariable(c, "x");
  EXPECT_TRUE(out.IsKnownFalse());
}

TEST(FourierMotzkinTest, StrictContradictionAtSharedPoint) {
  // x < 1 AND x >= 1 is unsatisfiable; x <= 1 AND x >= 1 is x = 1.
  Conjunction strict({Constraint::Lt(V("x"), C(1)),
                      Constraint::Ge(V("x"), C(1))});
  EXPECT_FALSE(fm::IsSatisfiable(strict));
  Conjunction touching({Constraint::Le(V("x"), C(1)),
                        Constraint::Ge(V("x"), C(1))});
  EXPECT_TRUE(fm::IsSatisfiable(touching));
}

// Soundness property: if a point satisfies the input, its restriction
// satisfies the eliminated form; completeness at rational sample points:
// if restriction satisfies output, some x extends it (checked via interval).
TEST(FourierMotzkinTest, EliminationSemanticsRandomized) {
  Rng rng(314159);
  for (int iter = 0; iter < 200; ++iter) {
    // Random conjunction over x, y with small integer coefficients.
    Conjunction c;
    int n = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < n; ++i) {
      LinearExpr e = V("x") * Rational(rng.UniformInt(-3, 3)) +
                     V("y") * Rational(rng.UniformInt(-3, 3)) +
                     C(rng.UniformInt(-10, 10));
      int op = static_cast<int>(rng.UniformInt(0, 2));
      c.Add(Constraint(e, op == 0   ? ConstraintOp::kLe
                          : op == 1 ? ConstraintOp::kLt
                                    : ConstraintOp::kEq));
    }
    Conjunction projected = fm::EliminateVariable(c, "x");
    EXPECT_FALSE(projected.Mentions("x"));
    for (int sample = 0; sample < 20; ++sample) {
      Rational x(rng.UniformInt(-12, 12), rng.UniformInt(1, 4));
      Rational y(rng.UniformInt(-12, 12), rng.UniformInt(1, 4));
      if (c.IsSatisfiedBy({{"x", x}, {"y", y}})) {
        EXPECT_TRUE(projected.IsSatisfiedBy({{"y", y}}))
            << "soundness violated at x=" << x.ToString()
            << " y=" << y.ToString() << " for " << c.ToString();
      }
      // Completeness: if y satisfies the projection, the interval of x
      // values compatible with this y must be non-empty.
      if (projected.IsSatisfiedBy({{"y", y}})) {
        Conjunction with_y = c.Substitute("y", LinearExpr::Constant(y));
        EXPECT_TRUE(fm::IsSatisfiable(with_y))
            << "completeness violated at y=" << y.ToString() << " for "
            << c.ToString();
      }
    }
  }
}

// --- Project ----------------------------------------------------------------

TEST(FourierMotzkinTest, ProjectKeepsOnlyRequestedVariables) {
  Conjunction c({Constraint::Le(V("x") + V("y") + V("z"), C(3)),
                 Constraint::Ge(V("x"), C(0)), Constraint::Ge(V("y"), C(0)),
                 Constraint::Ge(V("z"), C(0))});
  Conjunction out = fm::Project(c, {"x"});
  EXPECT_FALSE(out.Mentions("y"));
  EXPECT_FALSE(out.Mentions("z"));
  // x ranges over [0, 3].
  EXPECT_TRUE(out.IsSatisfiedBy({{"x", Rational(3)}}));
  EXPECT_TRUE(out.IsSatisfiedBy({{"x", Rational(0)}}));
  EXPECT_FALSE(out.IsSatisfiedBy({{"x", Rational(4)}}));
  EXPECT_FALSE(out.IsSatisfiedBy({{"x", Rational(-1)}}));
}

TEST(FourierMotzkinTest, ProjectOntoEmptySetDecidesSatisfiability) {
  Conjunction sat({Constraint::Le(V("x"), V("y"))});
  EXPECT_TRUE(fm::Project(sat, {}).IsTriviallyTrue());
  Conjunction unsat({Constraint::Lt(V("x"), V("y")),
                     Constraint::Lt(V("y"), V("x"))});
  EXPECT_TRUE(fm::Project(unsat, {}).IsKnownFalse());
}

// --- IsSatisfiable ----------------------------------------------------------

TEST(FourierMotzkinTest, SatisfiabilityBasics) {
  EXPECT_TRUE(fm::IsSatisfiable(Conjunction()));
  EXPECT_FALSE(fm::IsSatisfiable(Conjunction::False()));

  // Triangle: x >= 0, y >= 0, x + y <= 1.
  Conjunction triangle({Constraint::Ge(V("x"), C(0)),
                        Constraint::Ge(V("y"), C(0)),
                        Constraint::Le(V("x") + V("y"), C(1))});
  EXPECT_TRUE(fm::IsSatisfiable(triangle));

  // Infeasible: x + y <= 0, x >= 1, y >= 1.
  Conjunction infeasible({Constraint::Le(V("x") + V("y"), C(0)),
                          Constraint::Ge(V("x"), C(1)),
                          Constraint::Ge(V("y"), C(1))});
  EXPECT_FALSE(fm::IsSatisfiable(infeasible));
}

TEST(FourierMotzkinTest, SatisfiabilityWithEqualityChains) {
  // x = y, y = z, z = 3, x <= 2 is unsatisfiable.
  Conjunction c({Constraint::Eq(V("x"), V("y")), Constraint::Eq(V("y"), V("z")),
                 Constraint::Eq(V("z"), C(3)), Constraint::Le(V("x"), C(2))});
  EXPECT_FALSE(fm::IsSatisfiable(c));
  // Relax the bound: satisfiable.
  Conjunction ok({Constraint::Eq(V("x"), V("y")), Constraint::Eq(V("y"), V("z")),
                  Constraint::Eq(V("z"), C(3)), Constraint::Le(V("x"), C(3))});
  EXPECT_TRUE(fm::IsSatisfiable(ok));
}

TEST(FourierMotzkinTest, OpenPolytopeIsSatisfiableOverRationals) {
  // 0 < x < 1/1000000: dense order has points in any open interval.
  Conjunction c({Constraint::Gt(V("x"), C(0)),
                 Constraint::Lt(V("x") * Rational(1000000), C(1))});
  EXPECT_TRUE(fm::IsSatisfiable(c));
}

// --- Entails / AreEquivalent -------------------------------------------------

TEST(FourierMotzkinTest, EntailsBasics) {
  Conjunction c({Constraint::Ge(V("x"), C(2)), Constraint::Le(V("x"), C(3))});
  EXPECT_TRUE(fm::Entails(c, Constraint::Ge(V("x"), C(1))));
  EXPECT_TRUE(fm::Entails(c, Constraint::Le(V("x"), C(3))));
  EXPECT_TRUE(fm::Entails(c, Constraint::Lt(V("x"), C(4))));
  EXPECT_FALSE(fm::Entails(c, Constraint::Lt(V("x"), C(3))));
  EXPECT_FALSE(fm::Entails(c, Constraint::Ge(V("x"), C(3))));
  EXPECT_FALSE(fm::Entails(c, Constraint::Eq(V("x"), C(2))));
}

TEST(FourierMotzkinTest, EntailsEqualityClaim) {
  Conjunction pin({Constraint::Ge(V("x"), C(2)), Constraint::Le(V("x"), C(2))});
  EXPECT_TRUE(fm::Entails(pin, Constraint::Eq(V("x"), C(2))));
  EXPECT_FALSE(fm::Entails(pin, Constraint::Eq(V("x"), C(3))));
}

TEST(FourierMotzkinTest, FalsePremiseEntailsEverything) {
  EXPECT_TRUE(
      fm::Entails(Conjunction::False(), Constraint::Eq(V("x"), C(42))));
}

TEST(FourierMotzkinTest, EntailsTransitiveChain) {
  // x <= y, y <= z  entails  x <= z.
  Conjunction c({Constraint::Le(V("x"), V("y")),
                 Constraint::Le(V("y"), V("z"))});
  EXPECT_TRUE(fm::Entails(c, Constraint::Le(V("x"), V("z"))));
  EXPECT_FALSE(fm::Entails(c, Constraint::Lt(V("x"), V("z"))));
}

TEST(FourierMotzkinTest, AreEquivalentDetectsSyntacticVariants) {
  // {x = 1} vs {x <= 1, x >= 1}.
  Conjunction eq({Constraint::Eq(V("x"), C(1))});
  Conjunction pinched({Constraint::Le(V("x"), C(1)),
                       Constraint::Ge(V("x"), C(1))});
  EXPECT_TRUE(fm::AreEquivalent(eq, pinched));
  Conjunction other({Constraint::Eq(V("x"), C(2))});
  EXPECT_FALSE(fm::AreEquivalent(eq, other));
  EXPECT_TRUE(fm::AreEquivalent(Conjunction::False(),
                                Conjunction({Constraint::Lt(V("x"), V("x"))})));
}

// --- RemoveRedundant ----------------------------------------------------------

TEST(FourierMotzkinTest, RemoveRedundantDropsImpliedBound) {
  // x <= 1 makes x <= 5 redundant.
  Conjunction c({Constraint::Le(V("x"), C(1)), Constraint::Le(V("x"), C(5))});
  Conjunction out = fm::RemoveRedundant(c);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(fm::AreEquivalent(c, out));
}

TEST(FourierMotzkinTest, RemoveRedundantDropsDerivedDiagonal) {
  // x <= 2, y <= 2 make x + y <= 4 redundant.
  Conjunction c({Constraint::Le(V("x"), C(2)), Constraint::Le(V("y"), C(2)),
                 Constraint::Le(V("x") + V("y"), C(4))});
  Conjunction out = fm::RemoveRedundant(c);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(fm::AreEquivalent(c, out));
}

TEST(FourierMotzkinTest, RemoveRedundantKeepsIndependentBounds) {
  Conjunction c({Constraint::Le(V("x"), C(2)), Constraint::Ge(V("x"), C(0)),
                 Constraint::Le(V("y"), C(1))});
  EXPECT_EQ(fm::RemoveRedundant(c).size(), 3u);
}

TEST(FourierMotzkinTest, RemoveRedundantCollapsesUnsatisfiable) {
  Conjunction c({Constraint::Le(V("x") + V("y"), C(0)),
                 Constraint::Ge(V("x"), C(1)), Constraint::Ge(V("y"), C(1))});
  EXPECT_TRUE(fm::RemoveRedundant(c).IsKnownFalse());
}

// --- VariableInterval / BoundingBox -------------------------------------------

TEST(FourierMotzkinTest, IntervalClosed) {
  Conjunction c({Constraint::Ge(V("x"), C(1)), Constraint::Le(V("x"), C(4))});
  fm::Interval iv = fm::VariableInterval(c, "x");
  ASSERT_TRUE(iv.lower && iv.upper);
  EXPECT_EQ(iv.lower->value, Rational(1));
  EXPECT_FALSE(iv.lower->strict);
  EXPECT_EQ(iv.upper->value, Rational(4));
  EXPECT_FALSE(iv.upper->strict);
  EXPECT_EQ(iv.ToString(), "[1, 4]");
}

TEST(FourierMotzkinTest, IntervalOpenAndHalfOpen) {
  Conjunction c({Constraint::Gt(V("x"), C(0)), Constraint::Lt(V("x"), C(1))});
  fm::Interval iv = fm::VariableInterval(c, "x");
  ASSERT_TRUE(iv.lower && iv.upper);
  EXPECT_TRUE(iv.lower->strict);
  EXPECT_TRUE(iv.upper->strict);
  EXPECT_FALSE(iv.Contains(Rational(0)));
  EXPECT_TRUE(iv.Contains(Rational(1, 2)));
  EXPECT_FALSE(iv.Contains(Rational(1)));
}

TEST(FourierMotzkinTest, IntervalThroughOtherVariables) {
  // y in [0, 2], x = 2y  =>  x in [0, 4].
  Conjunction c({Constraint::Ge(V("y"), C(0)), Constraint::Le(V("y"), C(2)),
                 Constraint::Eq(V("x"), V("y") * Rational(2))});
  fm::Interval iv = fm::VariableInterval(c, "x");
  ASSERT_TRUE(iv.lower && iv.upper);
  EXPECT_EQ(iv.lower->value, Rational(0));
  EXPECT_EQ(iv.upper->value, Rational(4));
}

TEST(FourierMotzkinTest, IntervalUnbounded) {
  Conjunction c({Constraint::Ge(V("x"), C(7))});
  fm::Interval iv = fm::VariableInterval(c, "x");
  ASSERT_TRUE(iv.lower);
  EXPECT_FALSE(iv.upper);
  EXPECT_EQ(iv.lower->value, Rational(7));
  EXPECT_EQ(iv.ToString(), "[7, +inf)");

  fm::Interval free = fm::VariableInterval(Conjunction(), "x");
  EXPECT_FALSE(free.lower);
  EXPECT_FALSE(free.upper);
  EXPECT_TRUE(free.Contains(Rational(-1000000)));
}

TEST(FourierMotzkinTest, IntervalPointFromEquality) {
  Conjunction c({Constraint::Eq(V("x"), C(3))});
  fm::Interval iv = fm::VariableInterval(c, "x");
  EXPECT_TRUE(iv.IsPoint());
  EXPECT_TRUE(iv.Contains(Rational(3)));
  EXPECT_FALSE(iv.Contains(Rational(2)));
}

TEST(FourierMotzkinTest, IntervalEmptyOnContradiction) {
  Conjunction c({Constraint::Ge(V("x"), C(4)), Constraint::Le(V("x"), C(1))});
  EXPECT_TRUE(fm::VariableInterval(c, "x").empty);
  Conjunction strict({Constraint::Gt(V("x"), C(1)),
                      Constraint::Le(V("x"), C(1))});
  EXPECT_TRUE(fm::VariableInterval(strict, "x").empty);
}

TEST(FourierMotzkinTest, BoundingBoxOfTriangle) {
  // Triangle (0,0), (2,0), (0,2): x,y >= 0, x + y <= 2.
  Conjunction tri({Constraint::Ge(V("x"), C(0)), Constraint::Ge(V("y"), C(0)),
                   Constraint::Le(V("x") + V("y"), C(2))});
  auto box = fm::BoundingBox(tri, {"x", "y"});
  EXPECT_EQ(box.at("x").lower->value, Rational(0));
  EXPECT_EQ(box.at("x").upper->value, Rational(2));
  EXPECT_EQ(box.at("y").lower->value, Rational(0));
  EXPECT_EQ(box.at("y").upper->value, Rational(2));
}

TEST(FourierMotzkinTest, IntervalEqualityMeetsStrictBound) {
  // x = 3 AND x > 3 is empty however the members are ordered; the x - y
  // member with a free y sends the same store through the FM path.
  Conjunction fast({Constraint::Eq(V("x"), C(3)),
                    Constraint::Gt(V("x"), C(3))});
  EXPECT_TRUE(fm::VariableInterval(fast, "x").empty);
  Conjunction via_fm = fast;
  via_fm.Add(Constraint::Le(V("x") - V("y"), C(0)));
  EXPECT_TRUE(fm::VariableInterval(via_fm, "x").empty);
  Conjunction below({Constraint::Eq(V("x"), C(3)),
                     Constraint::Lt(V("x"), C(3))});
  EXPECT_TRUE(fm::VariableInterval(below, "x").empty);
}

TEST(FourierMotzkinTest, IntervalOverlapAtSharedEndpoint) {
  auto interval = [](const Conjunction& c) {
    return fm::VariableInterval(c, "x");
  };
  fm::Interval closed_low =
      interval(Conjunction({Constraint::Le(V("x"), C(2))}));
  fm::Interval closed_high =
      interval(Conjunction({Constraint::Ge(V("x"), C(2))}));
  fm::Interval strict_high =
      interval(Conjunction({Constraint::Gt(V("x"), C(2))}));
  fm::Interval free = interval(Conjunction());
  fm::Interval empty = interval(Conjunction(
      {Constraint::Ge(V("x"), C(1)), Constraint::Lt(V("x"), C(1))}));
  // Closed bounds that touch share their endpoint: both stores hold x = 2.
  EXPECT_TRUE(closed_low.Overlaps(closed_high));
  EXPECT_TRUE(closed_high.Overlaps(closed_low));
  // A strict bound at the same value leaves nothing in common.
  EXPECT_FALSE(closed_low.Overlaps(strict_high));
  EXPECT_FALSE(strict_high.Overlaps(closed_low));
  EXPECT_TRUE(free.Overlaps(strict_high));
  EXPECT_FALSE(empty.Overlaps(free));
  EXPECT_FALSE(free.Overlaps(empty));
}

TEST(FourierMotzkinTest, SingleVariableBoundsAreAnOuterBox) {
  // x in [0, 4], y in [0, 4], x + y <= 2: the x + y member is skipped, so
  // the read box is the outer box [0, 4]^2, not the exact [0, 2]^2.
  Conjunction c({Constraint::Ge(V("x"), C(0)), Constraint::Le(V("x"), C(4)),
                 Constraint::Ge(V("y"), C(0)), Constraint::Le(V("y"), C(4)),
                 Constraint::Le(V("x") + V("y"), C(2))});
  fm::Box outer = fm::SingleVariableBounds(c, {"x"});
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.at("x").ToString(), "[0, 4]");
  EXPECT_EQ(fm::BoundingBox(c, {"x"}).at("x").ToString(), "[0, 2]");
  // Contradicting bounds on a variable that was not asked for still
  // empty the whole box.
  c.Add(Constraint::Gt(V("y"), C(4)));
  EXPECT_TRUE(fm::SingleVariableBounds(c, {"x"}).at("x").empty);
  EXPECT_TRUE(
      fm::SingleVariableBounds(Conjunction::False(), {"x"}).at("x").empty);
}

void ExpectSameInterval(const fm::Interval& fast, const fm::Interval& exact,
                        const std::string& context) {
  EXPECT_EQ(fast.empty, exact.empty) << context;
  EXPECT_EQ(fast.lower, exact.lower) << context;
  EXPECT_EQ(fast.upper, exact.upper) << context;
}

TEST(FourierMotzkinTest, SingleVariableFastPathMatchesFm) {
  // Random stores whose members each mention one of x, y, z, with small
  // constants so that bounds often meet at an endpoint and some stores
  // are empty. The exact reference is FM's VariableInterval on the same
  // store plus u + w <= 0 over two otherwise-free variables: that member
  // forces the elimination path and changes no interval of x, y or z.
  Rng rng(2003);
  const std::vector<std::string> vars = {"x", "y", "z"};
  const std::set<std::string> var_set(vars.begin(), vars.end());
  int empties = 0;
  int strict_ends = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Conjunction store;
    const int members = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < members; ++i) {
      const std::string& var = vars[rng.UniformInt(0, 2)];
      Rational coeff(rng.UniformInt(1, 3) * (rng.UniformInt(0, 1) ? 1 : -1));
      const int op = static_cast<int>(rng.UniformInt(0, 4));
      LinearExpr e = V(var) * coeff + C(rng.UniformInt(-4, 4));
      store.Add(Constraint(std::move(e), op == 0   ? ConstraintOp::kEq
                                         : op <= 2 ? ConstraintOp::kLe
                                                   : ConstraintOp::kLt));
    }
    Conjunction forced = store;
    forced.Add(Constraint::Le(V("u") + V("w"), C(0)));

    const fm::Box fast = fm::BoundingBox(store, var_set);
    ASSERT_EQ(fast.size(), vars.size());
    for (const std::string& var : vars) {
      const std::string context = store.ToString() + " on " + var;
      const fm::Interval exact = fm::VariableInterval(forced, var);
      ExpectSameInterval(fast.at(var), exact, context);
      ExpectSameInterval(fm::VariableInterval(store, var), exact, context);
      ExpectSameInterval(fm::SingleVariableBounds(store, {var}).at(var),
                         exact, context);
      if (exact.empty) ++empties;
      if ((exact.lower && exact.lower->strict) ||
          (exact.upper && exact.upper->strict)) {
        ++strict_ends;
      }
    }
    EXPECT_EQ(fast.at("x").empty, !fm::IsSatisfiable(store));
  }
  EXPECT_GT(empties, 50) << "the sweep must cover empty stores";
  EXPECT_GT(strict_ends, 50) << "the sweep must cover strict endpoints";
}

}  // namespace
}  // namespace ccdb
