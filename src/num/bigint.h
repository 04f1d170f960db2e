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
/// Representation: 16 bytes. Values with |v| <= 2^62 live inline in an
/// int64 (the *small* form — no heap allocation, covering virtually all
/// coefficients in real workloads) beside a null pointer; larger values
/// point at a sign and 32-bit magnitude limbs, with schoolbook
/// multiplication and Knuth Algorithm D division. The form is canonical —
/// any value that fits is small — so representation equality is value
/// equality. Comparison and the small-form `+ - *` are inline; an overflow
/// falls back to the limb path.

#include <cstdint>
#include <memory>
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
  BigInt(int64_t value) : small_(value) {  // NOLINT(runtime/explicit)
    if (value < -kSmallMax || value > kSmallMax) SetBig(value);
  }

  BigInt(const BigInt& other)
      : small_(other.small_),
        big_(other.big_ ? std::make_unique<Big>(*other.big_) : nullptr) {}
  BigInt(BigInt&& other) noexcept = default;
  BigInt& operator=(const BigInt& other) {
    if (other.big_) return AssignBig(other);
    small_ = other.small_;
    big_.reset();
    return *this;
  }
  /// A moved-from value is a valid value (zero or its old small value).
  BigInt& operator=(BigInt&& other) noexcept = default;
  ~BigInt() = default;

  /// Parses an optionally signed decimal string, e.g. "-12345678901234567890".
  static Result<BigInt> FromString(const std::string& text);

  /// Decimal rendering, e.g. "-42".
  std::string ToString() const;

  /// Closest double (may overflow to +/-inf for huge values).
  double ToDouble() const;

  /// Value as int64 if it fits.
  Result<int64_t> ToInt64() const;

  bool IsZero() const { return !big_ && small_ == 0; }
  bool IsNegative() const { return big_ ? big_->negative : small_ < 0; }
  bool IsOne() const { return !big_ && small_ == 1; }

  /// -1, 0, or +1.
  int Sign() const {
    if (!big_) return (small_ > 0) - (small_ < 0);
    return big_->negative ? -1 : 1;  // big form is never zero
  }

  BigInt operator-() const {
    if (!big_) return BigInt(-small_);  // safe: |small_| <= 2^62
    return NegateBig();
  }
  BigInt Abs() const { return IsNegative() ? -*this : *this; }

  BigInt operator+(const BigInt& other) const {
    int64_t sum;
    if (!big_ && !other.big_ &&
        !__builtin_add_overflow(small_, other.small_, &sum)) {
      return BigInt(sum);
    }
    return AddSlow(*this, other);
  }
  BigInt operator-(const BigInt& other) const {
    int64_t difference;
    if (!big_ && !other.big_ &&
        !__builtin_sub_overflow(small_, other.small_, &difference)) {
      return BigInt(difference);
    }
    return AddSlow(*this, -other);
  }
  BigInt operator*(const BigInt& other) const {
    int64_t product;
    if (!big_ && !other.big_ &&
        !__builtin_mul_overflow(small_, other.small_, &product)) {
      return BigInt(product);
    }
    return MulSlow(*this, other);
  }

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
    if (!big_ || !other.big_) {
      return !big_ && !other.big_ && small_ == other.small_;
    }
    return big_->negative == other.big_->negative &&
           big_->limbs == other.big_->limbs;
  }
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  /// Three-way comparison: negative/zero/positive like strcmp.
  int Compare(const BigInt& other) const {
    if (!big_ && !other.big_) {
      return (small_ > other.small_) - (small_ < other.small_);
    }
    return CompareBig(other);
  }

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
  /// negation/abs of a small value never overflows int64.
  static constexpr int64_t kSmallMax = int64_t{1} << 62;

  /// The big form: a value beyond +/-2^62, never zero.
  struct Big {
    bool negative = false;
    std::vector<uint32_t> limbs;  // little-endian, the last one non-zero
  };

  /// Stores `value`, beyond the small range, in the big form.
  void SetBig(int64_t value);
  /// Copy assignment from a big value.
  BigInt& AssignBig(const BigInt& other);

  /// Out-of-line halves of the inline operators, for big operands and
  /// small-form overflow.
  BigInt NegateBig() const;
  int CompareBig(const BigInt& other) const;
  static BigInt AddSlow(const BigInt& a, const BigInt& b);
  static BigInt MulSlow(const BigInt& a, const BigInt& b);

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

  int64_t small_ = 0;         // the value when `big_` is null, else 0
  std::unique_ptr<Big> big_;  // null for every small value
};

/// Stream rendering via ToString.
std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace ccdb

#endif  // CCDB_NUM_BIGINT_H_
