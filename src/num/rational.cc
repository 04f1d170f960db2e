#include "num/rational.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "util/string_util.h"

namespace ccdb {

Rational::Rational(BigInt numerator, BigInt denominator)
    : num_(std::move(numerator)), den_(std::move(denominator)) {
  assert(!den_.IsZero() && "zero denominator");
  Normalize();
}

void Rational::Normalize() {
  if (den_.IsNegative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.IsZero()) {
    den_ = BigInt(1);
    return;
  }
  if (den_.IsOne()) return;  // already in lowest terms
  BigInt g = BigInt::Gcd(num_, den_);
  if (!g.IsOne()) {
    num_ /= g;
    den_ /= g;
  }
}

Result<Rational> Rational::FromString(const std::string& text) {
  std::string s = Trim(text);
  if (s.empty()) return Status::ParseError("empty rational literal");

  size_t slash = s.find('/');
  if (slash != std::string::npos) {
    CCDB_ASSIGN_OR_RETURN(BigInt num,
                          BigInt::FromString(Trim(s.substr(0, slash))));
    CCDB_ASSIGN_OR_RETURN(BigInt den,
                          BigInt::FromString(Trim(s.substr(slash + 1))));
    if (den.IsZero()) {
      return Status::ParseError("zero denominator in '" + text + "'");
    }
    return Rational(std::move(num), std::move(den));
  }

  size_t dot = s.find('.');
  if (dot != std::string::npos) {
    std::string head = s.substr(0, dot);
    std::string frac = s.substr(dot + 1);
    if (frac.empty()) {
      return Status::ParseError("trailing decimal point in '" + text + "'");
    }
    bool negative = !head.empty() && head[0] == '-';
    if (head == "-" || head == "+" || head.empty()) head += '0';
    CCDB_ASSIGN_OR_RETURN(BigInt whole, BigInt::FromString(head));
    CCDB_ASSIGN_OR_RETURN(BigInt fraction, BigInt::FromString(frac));
    if (fraction.IsNegative()) {
      return Status::ParseError("bad decimal literal '" + text + "'");
    }
    BigInt scale = BigInt::Pow(BigInt(10), static_cast<uint32_t>(frac.size()));
    BigInt numerator = whole.Abs() * scale + fraction;
    if (negative) numerator = -numerator;
    return Rational(std::move(numerator), std::move(scale));
  }

  CCDB_ASSIGN_OR_RETURN(BigInt value, BigInt::FromString(s));
  return Rational(std::move(value));
}

Result<Rational> Rational::FromDouble(double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("not a finite double: " +
                                   std::to_string(value));
  }
  // value = mantissa * 2^exp with 0.5 <= |mantissa| < 1, so the 53-bit
  // significand mantissa * 2^53 is an exact integer.
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);
  const Rational significand(static_cast<int64_t>(std::ldexp(mantissa, 53)));
  const Rational power(BigInt::Pow(BigInt(2), std::abs(exp - 53)));
  return exp >= 53 ? significand * power : significand / power;
}

std::string Rational::ToString() const {
  if (IsInteger()) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

double Rational::ToDouble() const {
  // Huge operands overflow double to inf/inf = NaN; shift both down by a
  // common power of two first (exact for the ratio up to rounding).
  const size_t max_bits = std::max(num_.BitLength(), den_.BitLength());
  if (max_bits < 1000) {
    return num_.ToDouble() / den_.ToDouble();
  }
  // Shift both sides so the larger fits comfortably in a double's range;
  // a side shifted to zero honestly underflows (or the ratio overflows to
  // inf via IEEE x/0).
  const size_t shift = max_bits - 900;
  return num_.ShiftRight(shift).ToDouble() /
         den_.ShiftRight(shift).ToDouble();
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::Abs() const {
  Rational out = *this;
  out.num_ = out.num_.Abs();
  return out;
}

Rational Rational::Inverse() const {
  assert(!IsZero() && "inverse of zero");
  Rational out;
  out.num_ = den_;
  out.den_ = num_;
  if (out.den_.IsNegative()) {
    out.num_ = -out.num_;
    out.den_ = -out.den_;
  }
  return out;  // already reduced: gcd preserved by swapping
}

// Integer operands (every canonical coefficient and constant) take the
// numerators alone: no cross products, no gcd.
Rational Rational::operator+(const Rational& other) const {
  if (IsInteger() && other.IsInteger()) return Rational(num_ + other.num_);
  return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator-(const Rational& other) const {
  if (IsInteger() && other.IsInteger()) return Rational(num_ - other.num_);
  return Rational(num_ * other.den_ - other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator*(const Rational& other) const {
  if (IsInteger() && other.IsInteger()) return Rational(num_ * other.num_);
  return Rational(num_ * other.num_, den_ * other.den_);
}

Rational Rational::operator/(const Rational& other) const {
  assert(!other.IsZero() && "division by zero");
  return Rational(num_ * other.den_, den_ * other.num_);
}

int Rational::CompareCross(const Rational& other) const {
  // Denominators are positive, so sign(a/b - c/d) == sign(ad - cb).
  return (num_ * other.den_).Compare(other.num_ * den_);
}

BigInt Rational::Floor() const {
  BigInt q, r;
  BigInt::DivMod(num_, den_, &q, &r);
  if (r.IsZero() || !num_.IsNegative()) return q;
  return q - BigInt(1);
}

BigInt Rational::Ceil() const {
  BigInt q, r;
  BigInt::DivMod(num_, den_, &q, &r);
  if (r.IsZero() || num_.IsNegative()) return q;
  return q + BigInt(1);
}

size_t Rational::Hash() const {
  size_t h = num_.Hash();
  h ^= den_.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

}  // namespace ccdb
