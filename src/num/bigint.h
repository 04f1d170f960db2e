#ifndef CCDB_NUM_BIGINT_H_
#define CCDB_NUM_BIGINT_H_

/// \file bigint.h
/// Arbitrary-precision signed integers.
///
/// CCDB evaluates constraint queries *exactly*: the closure principle (§2.5
/// of the paper) requires query outputs to be representable in the same
/// constraint class as the inputs, and Fourier–Motzkin elimination multiplies
/// coefficient pairs at every step, growing them beyond any fixed width.
///
/// Representation: values with |v| <= 2^62 live inline in an int64 (the
/// *small* form — no heap allocation, covering virtually all coefficients
/// in real workloads); larger values use sign-magnitude 32-bit limbs with
/// schoolbook multiplication and Knuth Algorithm D division. The form is
/// canonical — any value that fits is small — so representation equality
/// is value equality.

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ccdb {

/// Arbitrary-precision signed integer with an inline small-value form.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a machine integer.
  BigInt(int64_t value);  // NOLINT(runtime/explicit): numeric literal ergonomics

  /// Parses an optionally signed decimal string, e.g. "-12345678901234567890".
  static Result<BigInt> FromString(const std::string& text);

  /// Decimal rendering, e.g. "-42".
  std::string ToString() const;

  /// Closest double (may overflow to +/-inf for huge values).
  double ToDouble() const;

  /// Value as int64 if it fits.
  Result<int64_t> ToInt64() const;

  bool IsZero() const { return is_small_ && small_ == 0; }
  bool IsNegative() const { return is_small_ ? small_ < 0 : negative_; }
  bool IsOne() const { return is_small_ && small_ == 1; }

  /// -1, 0, or +1.
  int Sign() const {
    if (is_small_) return small_ == 0 ? 0 : (small_ < 0 ? -1 : 1);
    return negative_ ? -1 : 1;  // big form is never zero
  }

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;

  /// Truncated division (C++ semantics: quotient rounds toward zero,
  /// remainder has the dividend's sign). Requires non-zero divisor.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;

  /// Computes quotient and remainder in one pass (truncated semantics).
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }
  BigInt& operator/=(const BigInt& o) { return *this = *this / o; }
  BigInt& operator%=(const BigInt& o) { return *this = *this % o; }

  bool operator==(const BigInt& other) const {
    // Canonical form: equal values share a representation.
    if (is_small_ != other.is_small_) return false;
    if (is_small_) return small_ == other.small_;
    return negative_ == other.negative_ && limbs_ == other.limbs_;
  }
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  /// Three-way comparison: negative/zero/positive like strcmp.
  int Compare(const BigInt& other) const;

  /// Greatest common divisor; result is non-negative. Gcd(0,0) == 0.
  static BigInt Gcd(BigInt a, BigInt b);

  /// `base` raised to `exp` (exp >= 0).
  static BigInt Pow(const BigInt& base, uint32_t exp);

  /// Number of bits in the magnitude (0 for zero).
  size_t BitLength() const;

  /// The magnitude as little-endian 32-bit limbs, the last one non-zero
  /// (empty for zero). With the sign, the value's lossless binary form.
  std::vector<uint32_t> MagnitudeLimbs() const;

  /// The value of a sign and little-endian magnitude limbs, in canonical
  /// form whatever the limbs (zero limbs on top are ignored).
  static BigInt FromLimbs(bool negative, std::vector<uint32_t> limbs);

  /// Arithmetic right shift of the magnitude (truncates toward zero).
  BigInt ShiftRight(size_t bits) const;

  /// Stable hash for container use.
  size_t Hash() const;

 private:
  /// Largest magnitude kept in the small form. 2^62 leaves headroom so
  /// negation/abs and sums of two smalls never overflow int64.
  static constexpr int64_t kSmallMax = int64_t{1} << 62;

  /// Builds the big (limb) form from a 64-bit-plus magnitude.
  static BigInt FromMagnitude(bool negative, unsigned __int128 magnitude);

  /// Returns this value in limb form regardless of representation.
  void ToLimbs(bool* negative, std::vector<uint32_t>* limbs) const;

  /// Compares magnitudes only.
  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  /// Requires |a| >= |b|.
  static std::vector<uint32_t> SubMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  /// Knuth Algorithm D on magnitudes; requires non-empty divisor.
  static void DivModMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b,
                              std::vector<uint32_t>* quotient,
                              std::vector<uint32_t>* remainder);
  static void TrimZeros(std::vector<uint32_t>* limbs);

  /// Big-path arithmetic on two limb forms.
  static BigInt AddBig(bool a_neg, const std::vector<uint32_t>& a,
                       bool b_neg, const std::vector<uint32_t>& b);

  /// Restores the canonical form: trims zero limbs and demotes to the
  /// small form when the value fits.
  void Normalize();

  bool is_small_ = true;
  int64_t small_ = 0;                // valid when is_small_
  bool negative_ = false;            // big form only
  std::vector<uint32_t> limbs_;      // big form only; little-endian
};

/// Stream rendering via ToString.
std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace ccdb

#endif  // CCDB_NUM_BIGINT_H_
