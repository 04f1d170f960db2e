#include "num/rational.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/random.h"

namespace ccdb {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_TRUE(zero.IsInteger());
  EXPECT_EQ(zero.ToString(), "0");
}

TEST(RationalTest, NormalizesOnConstruction) {
  Rational half(2, 4);
  EXPECT_EQ(half.numerator(), BigInt(1));
  EXPECT_EQ(half.denominator(), BigInt(2));

  Rational negative(3, -6);
  EXPECT_EQ(negative.numerator(), BigInt(-1));
  EXPECT_EQ(negative.denominator(), BigInt(2));

  Rational zero(0, -7);
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.denominator(), BigInt(1));
}

TEST(RationalTest, ParsesIntegerFractionAndDecimal) {
  EXPECT_EQ(Rational::FromString("-3").value(), Rational(-3));
  EXPECT_EQ(Rational::FromString("3/4").value(), Rational(3, 4));
  EXPECT_EQ(Rational::FromString("-6/8").value(), Rational(-3, 4));
  EXPECT_EQ(Rational::FromString("2.5").value(), Rational(5, 2));
  EXPECT_EQ(Rational::FromString("-0.125").value(), Rational(-1, 8));
  EXPECT_EQ(Rational::FromString(".5").value(), Rational(1, 2));
  EXPECT_EQ(Rational::FromString("-.5").value(), Rational(-1, 2));
  EXPECT_EQ(Rational::FromString(" 7/2 ").value(), Rational(7, 2));
}

TEST(RationalTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Rational::FromString("").ok());
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("2.").ok());
  EXPECT_FALSE(Rational::FromString("a/b").ok());
  EXPECT_FALSE(Rational::FromString("1.2.3").ok());
  EXPECT_FALSE(Rational::FromString("1.-5").ok());
}

TEST(RationalTest, ToStringIntegerVsFraction) {
  EXPECT_EQ(Rational(4, 2).ToString(), "2");
  EXPECT_EQ(Rational(1, 3).ToString(), "1/3");
  EXPECT_EQ(Rational(-5, 10).ToString(), "-1/2");
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
  EXPECT_EQ(Rational(-7, 3).Abs(), Rational(7, 3));
}

TEST(RationalTest, InverseSwapsAndFixesSign) {
  EXPECT_EQ(Rational(2, 3).Inverse(), Rational(3, 2));
  EXPECT_EQ(Rational(-2, 3).Inverse(), Rational(-3, 2));
  EXPECT_EQ(Rational(-2, 3).Inverse().denominator(), BigInt(2));
}

TEST(RationalTest, ComparisonIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4).Compare(Rational(1, 2)), 0);
  // A comparison a double would get wrong: 1/3 vs 33333.../100000...
  Rational third(1, 3);
  Rational close(BigInt::FromString("3333333333333333").value(),
                 BigInt::FromString("10000000000000000").value());
  EXPECT_GT(third, close);
  // Equal denominators (1, then 3) compare by numerators alone.
  EXPECT_EQ(Rational(3).Compare(Rational(5)), -1);
  EXPECT_EQ(Rational(5).Compare(Rational(3)), 1);
  EXPECT_EQ(Rational(-5).Compare(Rational(-3)), -1);
  EXPECT_EQ(Rational(-3).Compare(Rational(2)), -1);
  EXPECT_EQ(Rational(7).Compare(Rational(7)), 0);
  EXPECT_EQ(Rational(-7).Compare(Rational(-7)), 0);
  EXPECT_EQ(Rational(1, 3).Compare(Rational(2, 3)), -1);
  EXPECT_EQ(Rational(-1, 3).Compare(Rational(-2, 3)), 1);
  EXPECT_EQ(Rational(-4, 3).Compare(Rational(5, 3)), -1);
  EXPECT_EQ(Rational(4, 3).Compare(Rational(4, 3)), 0);
  // A multi-limb numerator against a small one.
  const BigInt big = BigInt::Pow(BigInt(2), 70);
  EXPECT_EQ(Rational(big).Compare(Rational(3)), 1);
  EXPECT_EQ(Rational(-big).Compare(Rational(3)), -1);
  EXPECT_EQ(Rational(3).Compare(Rational(big)), -1);
  EXPECT_EQ(Rational(big, BigInt(3)).Compare(Rational(1, 3)), 1);
  EXPECT_EQ(Rational(-big, BigInt(3)).Compare(Rational(-1, 3)), -1);
  EXPECT_EQ(Rational(big).Compare(Rational(big)), 0);
}

TEST(RationalTest, CompareMatchesSignOfDifferenceRandomized) {
  Rng rng(20031021);
  for (int iter = 0; iter < 2000; ++iter) {
    // Small denominators make equal ones common.
    Rational a(rng.UniformInt(-30, 30), rng.UniformInt(1, 4));
    Rational b(rng.UniformInt(-30, 30), rng.UniformInt(1, 4));
    EXPECT_EQ(a.Compare(b), (a - b).Sign())
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST(RationalTest, FieldAxiomsRandomized) {
  Rng rng(20030608);
  for (int iter = 0; iter < 500; ++iter) {
    Rational a(rng.UniformInt(-50, 50), rng.UniformInt(1, 20));
    Rational b(rng.UniformInt(-50, 50), rng.UniformInt(1, 20));
    Rational c(rng.UniformInt(-50, 50), rng.UniformInt(1, 20));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Rational(0));
    if (!b.IsZero()) EXPECT_EQ(a / b * b, a);
  }
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).Floor(), BigInt(3));
  EXPECT_EQ(Rational(7, 2).Ceil(), BigInt(4));
  EXPECT_EQ(Rational(-7, 2).Floor(), BigInt(-4));
  EXPECT_EQ(Rational(-7, 2).Ceil(), BigInt(-3));
  EXPECT_EQ(Rational(4).Floor(), BigInt(4));
  EXPECT_EQ(Rational(4).Ceil(), BigInt(4));
  EXPECT_EQ(Rational(0).Floor(), BigInt(0));
}

TEST(RationalTest, FloorCeilBracketRandomized) {
  Rng rng(5);
  for (int iter = 0; iter < 500; ++iter) {
    Rational v(rng.UniformInt(-10000, 10000), rng.UniformInt(1, 97));
    Rational floor{Rational(v.Floor())};
    Rational ceil{Rational(v.Ceil())};
    EXPECT_LE(floor, v);
    EXPECT_GE(ceil, v);
    EXPECT_LE(v - floor, Rational(1));
    EXPECT_LE(ceil - v, Rational(1));
  }
}

TEST(RationalTest, MinMax) {
  EXPECT_EQ(Rational::Min(Rational(1, 2), Rational(1, 3)), Rational(1, 3));
  EXPECT_EQ(Rational::Max(Rational(1, 2), Rational(1, 3)), Rational(1, 2));
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-3, 4).ToDouble(), -0.75);
  EXPECT_NEAR(Rational(1, 3).ToDouble(), 0.333333333, 1e-9);
}

Rational PowerOfTwo(int exp) {
  const BigInt power = BigInt::Pow(BigInt(2), static_cast<uint32_t>(
                                                  exp < 0 ? -exp : exp));
  return exp < 0 ? Rational(BigInt(1), power) : Rational(power);
}

TEST(RationalTest, FromDoubleIsExact) {
  EXPECT_EQ(Rational::FromDouble(0.5).value(), Rational(1, 2));
  EXPECT_EQ(Rational::FromDouble(-3).value(), Rational(-3));
  EXPECT_EQ(Rational::FromDouble(0).value(), Rational());
  // 0.1 is not 1/10 in binary: its exact value is 3602879701896397/2^55.
  EXPECT_EQ(Rational::FromDouble(0.1).value(),
            Rational(3602879701896397) * PowerOfTwo(-55));
  EXPECT_NE(Rational::FromDouble(0.1).value(), Rational(1, 10));
  EXPECT_EQ(Rational::FromDouble(std::ldexp(1.0, 70)).value(),
            PowerOfTwo(70));
  // The smallest subnormal, 2^-1074.
  EXPECT_EQ(
      Rational::FromDouble(std::numeric_limits<double>::denorm_min()).value(),
      PowerOfTwo(-1074));
  // A value std::to_string would round to six decimals stays exact.
  EXPECT_EQ(Rational::FromDouble(0.1234567).value().ToDouble(), 0.1234567);
}

TEST(RationalTest, FromDoubleRejectsNanAndInfinities) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Result<Rational> r = Rational::FromDouble(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RationalTest, HashEqualValuesAgree) {
  EXPECT_EQ(Rational(2, 4).Hash(), Rational(1, 2).Hash());
}

}  // namespace
}  // namespace ccdb
