#include "num/bigint.h"

#include "num/rational.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ccdb {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.Sign(), 0);
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_FALSE(zero.IsNegative());
}

TEST(BigIntTest, FromInt64RoundTrips) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-987654321}, INT64_MAX, INT64_MIN}) {
    BigInt b(v);
    auto back = b.ToInt64();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(back.value(), v);
    EXPECT_EQ(b.ToString(), std::to_string(v));
  }
}

TEST(BigIntTest, FromStringParsesAndRejects) {
  auto ok = BigInt::FromString("-123456789012345678901234567890");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().ToString(), "-123456789012345678901234567890");

  EXPECT_TRUE(BigInt::FromString("+77").ok());
  EXPECT_EQ(BigInt::FromString("+77").value(), BigInt(77));
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a").ok());
  EXPECT_FALSE(BigInt::FromString("1 2").ok());
}

TEST(BigIntTest, NegativeZeroNormalizes) {
  auto parsed = BigInt::FromString("-0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().IsZero());
  EXPECT_FALSE(parsed.value().IsNegative());
  EXPECT_EQ(parsed.value(), BigInt(0));
}

TEST(BigIntTest, AdditionBasics) {
  EXPECT_EQ(BigInt(2) + BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(-2) + BigInt(3), BigInt(1));
  EXPECT_EQ(BigInt(2) + BigInt(-3), BigInt(-1));
  EXPECT_EQ(BigInt(-2) + BigInt(-3), BigInt(-5));
  EXPECT_EQ(BigInt(5) + BigInt(-5), BigInt(0));
}

TEST(BigIntTest, CarryPropagatesAcrossLimbs) {
  BigInt a = BigInt::FromString("4294967295").value();  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).ToString(), "4294967296");
  BigInt b = BigInt::FromString("18446744073709551615").value();  // 2^64-1
  EXPECT_EQ((b + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, MultiplicationBasics) {
  EXPECT_EQ(BigInt(6) * BigInt(7), BigInt(42));
  EXPECT_EQ(BigInt(-6) * BigInt(7), BigInt(-42));
  EXPECT_EQ(BigInt(-6) * BigInt(-7), BigInt(42));
  EXPECT_EQ(BigInt(0) * BigInt(123456), BigInt(0));
}

TEST(BigIntTest, LargeMultiplication) {
  BigInt a = BigInt::FromString("123456789012345678901234567890").value();
  BigInt b = BigInt::FromString("987654321098765432109876543210").value();
  EXPECT_EQ((a * b).ToString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(-2), BigInt(-1));
}

TEST(BigIntTest, KnuthDMultiLimbDivision) {
  // Divisor > one limb forces the Algorithm D path.
  BigInt a = BigInt::FromString("340282366920938463463374607431768211456")
                 .value();  // 2^128
  BigInt b = BigInt::FromString("18446744073709551616").value();  // 2^64
  EXPECT_EQ((a / b).ToString(), "18446744073709551616");
  EXPECT_EQ(a % b, BigInt(0));

  BigInt c = a + BigInt(12345);
  EXPECT_EQ((c / b).ToString(), "18446744073709551616");
  EXPECT_EQ(c % b, BigInt(12345));
}

TEST(BigIntTest, KnuthDAddBackCase) {
  // Classic add-back trigger family: dividend u = b^2(b-1) style patterns.
  // Verified against Python: (2**96 - 2**64) // (2**64 - 1), remainder.
  BigInt num = BigInt::FromString("79228162495817593519834398720").value();
  BigInt den = BigInt::FromString("18446744073709551615").value();
  BigInt q, r;
  BigInt::DivMod(num, den, &q, &r);
  EXPECT_EQ(q.ToString(), "4294967295");
  EXPECT_EQ(r.ToString(), "4294967295");
  EXPECT_EQ(q * den + r, num);
}

TEST(BigIntTest, DivModIdentityRandomized) {
  Rng rng(20030608);
  for (int iter = 0; iter < 2000; ++iter) {
    int64_t a = rng.UniformInt(-1000000000000LL, 1000000000000LL);
    int64_t b = rng.UniformInt(-1000000, 1000000);
    if (b == 0) continue;
    BigInt q, r;
    BigInt::DivMod(BigInt(a), BigInt(b), &q, &r);
    EXPECT_EQ(q, BigInt(a / b)) << a << "/" << b;
    EXPECT_EQ(r, BigInt(a % b)) << a << "%" << b;
  }
}

TEST(BigIntTest, DivModIdentityLargeRandomized) {
  // q*b + r == a and |r| < |b| for multi-limb operands.
  Rng rng(42);
  for (int iter = 0; iter < 300; ++iter) {
    std::string sa, sb;
    int la = static_cast<int>(rng.UniformInt(1, 40));
    int lb = static_cast<int>(rng.UniformInt(1, 25));
    for (int i = 0; i < la; ++i) sa += static_cast<char>('0' + rng.UniformInt(i ? 0 : 1, 9));
    for (int i = 0; i < lb; ++i) sb += static_cast<char>('0' + rng.UniformInt(i ? 0 : 1, 9));
    if (rng.UniformInt(0, 1)) sa = "-" + sa;
    if (rng.UniformInt(0, 1)) sb = "-" + sb;
    BigInt a = BigInt::FromString(sa).value();
    BigInt b = BigInt::FromString(sb).value();
    if (b.IsZero()) continue;
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a) << sa << " / " << sb;
    EXPECT_LT(r.Abs().Compare(b.Abs()), 0) << sa << " / " << sb;
    // Remainder sign matches dividend (or is zero).
    if (!r.IsZero()) EXPECT_EQ(r.Sign(), a.Sign());
  }
}

TEST(BigIntTest, ArithmeticMatchesInt64Reference) {
  Rng rng(7);
  for (int iter = 0; iter < 3000; ++iter) {
    int64_t a = rng.UniformInt(-2000000000LL, 2000000000LL);
    int64_t b = rng.UniformInt(-2000000000LL, 2000000000LL);
    EXPECT_EQ(BigInt(a) + BigInt(b), BigInt(a + b));
    EXPECT_EQ(BigInt(a) - BigInt(b), BigInt(a - b));
    EXPECT_EQ(BigInt(a) * BigInt(b), BigInt(a * b));
    EXPECT_EQ(BigInt(a).Compare(BigInt(b)), a < b ? -1 : (a == b ? 0 : 1));
  }
}

TEST(BigIntTest, StringRoundTripRandomized) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::string s;
    int len = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < len; ++i) {
      s += static_cast<char>('0' + rng.UniformInt(i ? 0 : 1, 9));
    }
    if (rng.UniformInt(0, 1)) s = "-" + s;
    auto parsed = BigInt::FromString(s);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().ToString(), s);
  }
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(-18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, GcdDividesBothRandomized) {
  Rng rng(11);
  for (int iter = 0; iter < 500; ++iter) {
    int64_t a = rng.UniformInt(-1000000000LL, 1000000000LL);
    int64_t b = rng.UniformInt(-1000000000LL, 1000000000LL);
    BigInt g = BigInt::Gcd(BigInt(a), BigInt(b));
    if (a == 0 && b == 0) {
      EXPECT_TRUE(g.IsZero());
      continue;
    }
    EXPECT_FALSE(g.IsNegative());
    EXPECT_TRUE((BigInt(a) % g).IsZero());
    EXPECT_TRUE((BigInt(b) % g).IsZero());
  }
}

TEST(BigIntTest, PowBasics) {
  EXPECT_EQ(BigInt::Pow(BigInt(2), 10), BigInt(1024));
  EXPECT_EQ(BigInt::Pow(BigInt(10), 0), BigInt(1));
  EXPECT_EQ(BigInt::Pow(BigInt(0), 5), BigInt(0));
  EXPECT_EQ(BigInt::Pow(BigInt(-3), 3), BigInt(-27));
  EXPECT_EQ(BigInt::Pow(BigInt(10), 30).ToString(),
            "1000000000000000000000000000000");
}

TEST(BigIntTest, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-7).ToDouble(), -7.0);
  BigInt big = BigInt::FromString("1000000000000000000000").value();
  EXPECT_NEAR(big.ToDouble(), 1e21, 1e6);
}

TEST(BigIntTest, ToInt64RangeChecks) {
  BigInt max(INT64_MAX);
  BigInt min(INT64_MIN);
  EXPECT_TRUE(max.ToInt64().ok());
  EXPECT_TRUE(min.ToInt64().ok());
  EXPECT_FALSE((max + BigInt(1)).ToInt64().ok());
  EXPECT_FALSE((min - BigInt(1)).ToInt64().ok());
}

TEST(BigIntTest, ComparisonOperators) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(100), BigInt(99));
  EXPECT_LE(BigInt(4), BigInt(4));
  EXPECT_GE(BigInt(4), BigInt(4));
  EXPECT_NE(BigInt(1), BigInt(-1));
  // Magnitude vs limb count: more limbs means larger magnitude.
  BigInt huge = BigInt::FromString("99999999999999999999999999").value();
  EXPECT_GT(huge, BigInt(INT64_MAX));
  EXPECT_LT(-huge, BigInt(INT64_MIN));
}

TEST(BigIntTest, HashEqualValuesAgree) {
  BigInt a = BigInt::FromString("123456789123456789123456789").value();
  BigInt b = BigInt::FromString("123456789123456789123456789").value();
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(BigInt(1).Hash(), BigInt(-1).Hash());
}


// A small value is an int64 beside a null pointer to the big form.
static_assert(sizeof(BigInt) == 16, "BigInt is an int64 and one pointer");
static_assert(sizeof(Rational) == 32, "Rational is two BigInts");

TEST(BigIntTest, CopiesOfABigValueAreIndependent) {
  const std::string text = "123456789012345678901234567890";
  const BigInt original = BigInt::FromString(text).value();
  {
    BigInt copy = original;
    EXPECT_EQ(copy, original);
    copy += BigInt(1);
    EXPECT_NE(copy, original);
    BigInt assigned = BigInt::FromString("-99999999999999999999999").value();
    assigned = original;  // big over big
    assigned *= assigned;
    EXPECT_NE(assigned, original);
  }  // the copies die here
  EXPECT_EQ(original.ToString(), text);
  BigInt small(5);
  small = original;  // big over small
  small = -small;
  EXPECT_EQ(original.ToString(), text);
  small = BigInt(5);  // small over big
  EXPECT_EQ(small, BigInt(5));
}

TEST(BigIntTest, SelfAssignmentAndMovedFromValues) {
  const std::string text = "-98765432109876543210";
  BigInt big = BigInt::FromString(text).value();
  const BigInt& alias = big;
  big = alias;
  EXPECT_EQ(big.ToString(), text);

  BigInt moved_to = std::move(big);
  EXPECT_EQ(moved_to.ToString(), text);
  // The moved-from value is still a value: it reads as zero, takes part
  // in arithmetic, and can be assigned again.
  EXPECT_TRUE(big.IsZero());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(big + moved_to, moved_to);
  big = moved_to;
  EXPECT_EQ(big, moved_to);
  BigInt small(-7);
  BigInt small_to = std::move(small);
  EXPECT_EQ(small_to, BigInt(-7));
  small = small_to * BigInt(6);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(small, BigInt(-42));
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(-1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101u);
}

TEST(BigIntTest, ShiftRight) {
  EXPECT_EQ(BigInt(256).ShiftRight(4), BigInt(16));
  EXPECT_EQ(BigInt(255).ShiftRight(4), BigInt(15));
  EXPECT_EQ(BigInt(-256).ShiftRight(4), BigInt(-16));
  EXPECT_EQ(BigInt(7).ShiftRight(10), BigInt(0));
  BigInt big = BigInt::Pow(BigInt(2), 200) + BigInt(12345);
  EXPECT_EQ(big.ShiftRight(200), BigInt(1));
  EXPECT_EQ(big.ShiftRight(0), big);
  // Shift by whole limbs exactly.
  EXPECT_EQ(BigInt::Pow(BigInt(2), 64).ShiftRight(32),
            BigInt::Pow(BigInt(2), 32));
}

TEST(BigIntTest, ShiftRightMatchesDivisionRandomized) {
  Rng rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    int64_t v = rng.UniformInt(0, int64_t{1} << 60);
    size_t k = static_cast<size_t>(rng.UniformInt(0, 70));
    BigInt expected(k >= 63 ? 0 : v >> k);
    EXPECT_EQ(BigInt(v).ShiftRight(k), expected) << v << " >> " << k;
  }
}

TEST(RationalHugeTest, ToDoubleOfHugeRatiosIsFinite) {
  // Regression: inf/inf used to produce NaN for very large operands.
  BigInt huge = BigInt::Pow(BigInt(7), 1500);   // ~4200 bits
  Rational near_three(huge * BigInt(3), huge);
  EXPECT_DOUBLE_EQ(near_three.ToDouble(), 3.0);
  Rational tiny(BigInt(1), huge);
  EXPECT_EQ(tiny.ToDouble(), 0.0);
  Rational big_ratio(huge, BigInt(2));
  EXPECT_TRUE(std::isinf(big_ratio.ToDouble()) ||
              big_ratio.ToDouble() > 1e300);
}

}  // namespace
}  // namespace ccdb
