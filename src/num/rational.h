#ifndef CCDB_NUM_RATIONAL_H_
#define CCDB_NUM_RATIONAL_H_

/// \file rational.h
/// Exact rational numbers.
///
/// CQA/CDB is a *rational linear* constraint database (§1.1 of the paper):
/// constants and coefficients are rationals, and all algebraic operators are
/// evaluated exactly so the closure principle holds with no approximation.
/// `Rational` is a normalized BigInt fraction (gcd-reduced, positive
/// denominator).

#include <string>

#include "num/bigint.h"
#include "util/status.h"

namespace ccdb {

/// Exact rational number `numerator / denominator`.
///
/// Invariants: denominator > 0; gcd(|numerator|, denominator) == 1;
/// zero is 0/1. All arithmetic is total except division by zero.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}

  /// From an integer.
  Rational(int64_t value) : num_(value), den_(1) {}  // NOLINT(runtime/explicit)

  /// From a BigInt.
  Rational(BigInt value) : num_(std::move(value)), den_(1) {}  // NOLINT

  /// From numerator/denominator; normalizes. Requires non-zero denominator.
  Rational(BigInt numerator, BigInt denominator);

  /// Convenience for small fractions, e.g. Rational(1, 2).
  Rational(int64_t numerator, int64_t denominator)
      : Rational(BigInt(numerator), BigInt(denominator)) {}

  /// Parses "-3", "3/4", "2.5", "-0.125". Rejects empty/garbage input.
  static Result<Rational> FromString(const std::string& text);

  /// The exact value of a finite double (an integer times a power of
  /// two): 0.1 is 3602879701896397/2^55. InvalidArgument for NaN and
  /// infinities.
  static Result<Rational> FromDouble(double value);

  /// Exact decimal-or-fraction rendering: integers as "n", otherwise "p/q".
  std::string ToString() const;

  /// Closest double.
  double ToDouble() const;

  const BigInt& numerator() const { return num_; }
  const BigInt& denominator() const { return den_; }

  bool IsZero() const { return num_.IsZero(); }
  bool IsInteger() const { return den_.IsOne(); }

  /// -1, 0, or +1.
  int Sign() const { return num_.Sign(); }

  Rational operator-() const;
  Rational Abs() const;
  /// Multiplicative inverse; requires non-zero.
  Rational Inverse() const;

  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  /// Requires non-zero divisor.
  Rational operator/(const Rational& other) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& other) const {
    return num_ == other.num_ && den_ == other.den_;
  }
  bool operator!=(const Rational& other) const { return !(*this == other); }
  bool operator<(const Rational& other) const { return Compare(other) < 0; }
  bool operator<=(const Rational& other) const { return Compare(other) <= 0; }
  bool operator>(const Rational& other) const { return Compare(other) > 0; }
  bool operator>=(const Rational& other) const { return Compare(other) >= 0; }

  /// Three-way comparison (exact): numerators alone at equal denominators,
  /// else cross-multiplication.
  int Compare(const Rational& other) const {
    if (den_ == other.den_) return num_.Compare(other.num_);
    return CompareCross(other);
  }

  /// Componentwise minimum / maximum.
  static const Rational& Min(const Rational& a, const Rational& b) {
    return a <= b ? a : b;
  }
  static const Rational& Max(const Rational& a, const Rational& b) {
    return a >= b ? a : b;
  }

  /// Largest integer <= value.
  BigInt Floor() const;
  /// Smallest integer >= value.
  BigInt Ceil() const;

  /// Stable hash for container use.
  size_t Hash() const;

 private:
  void Normalize();
  int CompareCross(const Rational& other) const;

  BigInt num_;
  BigInt den_;  // always positive
};

/// Stream rendering via ToString.
std::ostream& operator<<(std::ostream& os, const Rational& value);

}  // namespace ccdb

#endif  // CCDB_NUM_RATIONAL_H_
