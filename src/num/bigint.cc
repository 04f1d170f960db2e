#include "num/bigint.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>

namespace ccdb {

namespace {
constexpr uint64_t kBase = uint64_t{1} << 32;

uint64_t MagnitudeOf(int64_t v) {
  return v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
}
}  // namespace

void BigInt::SetBig(int64_t value) {
  const uint64_t magnitude = MagnitudeOf(value);
  *this = FromLimbs(value < 0, {static_cast<uint32_t>(magnitude),
                                static_cast<uint32_t>(magnitude >> 32)});
}

BigInt& BigInt::AssignBig(const BigInt& other) {
  if (this == &other) return *this;
  if (big_) {
    *big_ = *other.big_;
  } else {
    big_ = std::make_unique<Big>(*other.big_);
  }
  small_ = 0;
  return *this;
}

void BigInt::ToLimbs(bool* negative, std::vector<uint32_t>* limbs) const {
  if (big_) {
    *negative = big_->negative;
    *limbs = big_->limbs;
    return;
  }
  *negative = small_ < 0;
  limbs->clear();
  uint64_t magnitude = MagnitudeOf(small_);
  if (magnitude) limbs->push_back(static_cast<uint32_t>(magnitude & 0xffffffffULL));
  if (magnitude >> 32) limbs->push_back(static_cast<uint32_t>(magnitude >> 32));
}

std::vector<uint32_t> BigInt::MagnitudeLimbs() const {
  bool negative = false;
  std::vector<uint32_t> limbs;
  ToLimbs(&negative, &limbs);
  return limbs;
}

BigInt BigInt::FromLimbs(bool negative, std::vector<uint32_t> limbs) {
  TrimZeros(&limbs);
  if (limbs.size() <= 2) {
    uint64_t magnitude = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() == 2) magnitude |= static_cast<uint64_t>(limbs[1]) << 32;
    if (magnitude <= static_cast<uint64_t>(kSmallMax)) {
      const int64_t v = static_cast<int64_t>(magnitude);
      return BigInt(negative ? -v : v);
    }
  }
  BigInt out;
  out.big_ = std::make_unique<Big>();
  out.big_->negative = negative;
  out.big_->limbs = std::move(limbs);
  return out;
}

Result<BigInt> BigInt::FromString(const std::string& text) {
  size_t i = 0;
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  if (i >= text.size()) {
    return Status::ParseError("empty integer literal: '" + text + "'");
  }
  // Fast path: fits comfortably in int64.
  if (text.size() - i <= 18) {
    int64_t value = 0;
    for (; i < text.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
        return Status::ParseError("bad digit in integer literal: '" + text +
                                  "'");
      }
      value = value * 10 + (text[i] - '0');
    }
    return BigInt(negative ? -value : value);
  }
  BigInt result;
  const BigInt ten(10);
  for (; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      return Status::ParseError("bad digit in integer literal: '" + text + "'");
    }
    result = result * ten + BigInt(text[i] - '0');
  }
  if (negative) result = -result;
  return result;
}

std::string BigInt::ToString() const {
  if (!big_) return std::to_string(small_);
  // Repeated division by 10^9 (one limb's worth of decimal digits).
  std::vector<uint32_t> digits;  // base-10^9 digits, little-endian
  std::vector<uint32_t> work = big_->limbs;
  while (!work.empty()) {
    uint64_t remainder = 0;
    for (size_t i = work.size(); i-- > 0;) {
      uint64_t cur = (remainder << 32) | work[i];
      work[i] = static_cast<uint32_t>(cur / 1000000000ULL);
      remainder = cur % 1000000000ULL;
    }
    digits.push_back(static_cast<uint32_t>(remainder));
    TrimZeros(&work);
  }
  std::string out;
  if (big_->negative) out += '-';
  out += std::to_string(digits.back());
  for (size_t i = digits.size() - 1; i-- > 0;) {
    std::string chunk = std::to_string(digits[i]);
    out += std::string(9 - chunk.size(), '0');
    out += chunk;
  }
  return out;
}

double BigInt::ToDouble() const {
  if (!big_) return static_cast<double>(small_);
  double value = 0.0;
  for (size_t i = big_->limbs.size(); i-- > 0;) {
    value = value * 4294967296.0 + static_cast<double>(big_->limbs[i]);
  }
  return big_->negative ? -value : value;
}

Result<int64_t> BigInt::ToInt64() const {
  if (!big_) return small_;
  const std::vector<uint32_t>& limbs = big_->limbs;
  if (limbs.size() > 2) return Status::OutOfRange("BigInt exceeds int64 range");
  uint64_t magnitude = limbs[0];
  if (limbs.size() == 2) magnitude |= static_cast<uint64_t>(limbs[1]) << 32;
  if (big_->negative) {
    if (magnitude > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1) {
      return Status::OutOfRange("BigInt exceeds int64 range");
    }
    return static_cast<int64_t>(~magnitude + 1);
  }
  if (magnitude > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::OutOfRange("BigInt exceeds int64 range");
  }
  return static_cast<int64_t>(magnitude);
}

BigInt BigInt::NegateBig() const {
  BigInt out = *this;
  out.big_->negative = !out.big_->negative;
  return out;
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::CompareBig(const BigInt& other) const {
  // Canonical form: a big value always exceeds any small one in magnitude.
  if (!big_) return other.big_->negative ? 1 : -1;
  if (!other.big_) return big_->negative ? -1 : 1;
  if (big_->negative != other.big_->negative) return big_->negative ? -1 : 1;
  int mag = CompareMagnitude(big_->limbs, other.big_->limbs);
  return big_->negative ? -mag : mag;
}

void BigInt::TrimZeros(std::vector<uint32_t>* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

std::vector<uint32_t> BigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  const std::vector<uint32_t>& longer = a.size() >= b.size() ? a : b;
  const std::vector<uint32_t>& shorter = a.size() >= b.size() ? b : a;
  std::vector<uint32_t> out;
  out.reserve(longer.size() + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0);
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffULL));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  assert(CompareMagnitude(a, b) >= 0);
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  TrimZeros(&out);
  return out;
}

std::vector<uint32_t> BigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
      ++k;
    }
  }
  TrimZeros(&out);
  return out;
}

void BigInt::DivModMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b,
                             std::vector<uint32_t>* quotient,
                             std::vector<uint32_t>* remainder) {
  assert(!b.empty() && "division by zero");
  quotient->clear();
  remainder->clear();
  if (CompareMagnitude(a, b) < 0) {
    *remainder = a;
    return;
  }
  if (b.size() == 1) {
    // Short division by a single limb.
    const uint64_t divisor = b[0];
    quotient->assign(a.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a[i];
      (*quotient)[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    TrimZeros(quotient);
    if (rem) remainder->push_back(static_cast<uint32_t>(rem));
    return;
  }

  // Knuth TAOCP vol.2 Algorithm D.
  const size_t n = b.size();
  const size_t m = a.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  {
    uint32_t top = b.back();
    while ((top & 0x80000000U) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  auto shl = [shift](const std::vector<uint32_t>& v) {
    std::vector<uint32_t> out(v.size() + 1, 0);
    if (shift == 0) {
      std::copy(v.begin(), v.end(), out.begin());
      return out;
    }
    uint32_t carry = 0;
    for (size_t i = 0; i < v.size(); ++i) {
      out[i] = (v[i] << shift) | carry;
      carry = static_cast<uint32_t>(v[i] >> (32 - shift));
    }
    out[v.size()] = carry;
    return out;
  };
  std::vector<uint32_t> u = shl(a);  // size a.size()+1
  std::vector<uint32_t> v = shl(b);  // top limb may spill
  TrimZeros(&v);
  assert(v.size() == n);

  quotient->assign(m + 1, 0);
  const uint64_t vn1 = v[n - 1];
  const uint64_t vn2 = v[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂.
    uint64_t numerator = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / vn1;
    uint64_t rhat = numerator % vn1;
    while (qhat >= kBase || qhat * vn2 > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += vn1;
      if (rhat >= kBase) break;
    }
    // D4: multiply-and-subtract u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffULL) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t top = static_cast<int64_t>(u[j + n]) -
                  static_cast<int64_t>(carry) - borrow;
    if (top < 0) {
      // D6: estimate was one too large; add back.
      top += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<uint32_t>(sum & 0xffffffffULL);
        carry2 = sum >> 32;
      }
      top += static_cast<int64_t>(carry2);
      top &= static_cast<int64_t>(kBase - 1);
    }
    u[j + n] = static_cast<uint32_t>(top);
    (*quotient)[j] = static_cast<uint32_t>(qhat);
  }
  TrimZeros(quotient);

  // D8: denormalize the remainder (low n limbs of u, shifted back).
  remainder->assign(n, 0);
  if (shift == 0) {
    std::copy(u.begin(), u.begin() + static_cast<ptrdiff_t>(n),
              remainder->begin());
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint32_t high = (i + 1 < n) ? u[i + 1] : 0;
      (*remainder)[i] = (u[i] >> shift) |
                        static_cast<uint32_t>(static_cast<uint64_t>(high)
                                              << (32 - shift));
    }
  }
  TrimZeros(remainder);
}

BigInt BigInt::AddSlow(const BigInt& a, const BigInt& b) {
  bool a_neg, b_neg;
  std::vector<uint32_t> av, bv;
  a.ToLimbs(&a_neg, &av);
  b.ToLimbs(&b_neg, &bv);
  if (a_neg == b_neg) return FromLimbs(a_neg, AddMagnitude(av, bv));
  const int cmp = CompareMagnitude(av, bv);
  if (cmp == 0) return BigInt();
  if (cmp > 0) return FromLimbs(a_neg, SubMagnitude(av, bv));
  return FromLimbs(b_neg, SubMagnitude(bv, av));
}

BigInt BigInt::MulSlow(const BigInt& a, const BigInt& b) {
  bool a_neg, b_neg;
  std::vector<uint32_t> av, bv;
  a.ToLimbs(&a_neg, &av);
  b.ToLimbs(&b_neg, &bv);
  return FromLimbs(a_neg != b_neg, MulMagnitude(av, bv));
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  assert(!b.IsZero() && "division by zero");
  if (!a.big_ && !b.big_) {
    *quotient = BigInt(a.small_ / b.small_);
    *remainder = BigInt(a.small_ % b.small_);
    return;
  }
  bool a_neg, b_neg;
  std::vector<uint32_t> av, bv;
  a.ToLimbs(&a_neg, &av);
  b.ToLimbs(&b_neg, &bv);
  std::vector<uint32_t> q, r;
  DivModMagnitude(av, bv, &q, &r);
  *quotient = FromLimbs(a_neg != b_neg, std::move(q));
  *remainder = FromLimbs(a_neg, std::move(r));  // the dividend's sign
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  if (!a.big_ && !b.big_) {
    uint64_t x = MagnitudeOf(a.small_);
    uint64_t y = MagnitudeOf(b.small_);
    while (y != 0) {
      uint64_t t = x % y;
      x = y;
      y = t;
    }
    return BigInt(static_cast<int64_t>(x));
  }
  a = a.Abs();
  b = b.Abs();
  while (!b.IsZero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::Pow(const BigInt& base, uint32_t exp) {
  BigInt result(1);
  BigInt acc = base;
  while (exp > 0) {
    if (exp & 1) result *= acc;
    exp >>= 1;
    if (exp) acc *= acc;
  }
  return result;
}

size_t BigInt::BitLength() const {
  if (!big_) {
    uint64_t magnitude = MagnitudeOf(small_);
    size_t bits = 0;
    while (magnitude) {
      ++bits;
      magnitude >>= 1;
    }
    return bits;
  }
  uint32_t top = big_->limbs.back();
  size_t bits = (big_->limbs.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

BigInt BigInt::ShiftRight(size_t bits) const {
  if (!big_) {
    if (bits >= 63) return BigInt();
    int64_t magnitude = small_ < 0 ? -small_ : small_;
    magnitude >>= bits;
    return BigInt(small_ < 0 ? -magnitude : magnitude);
  }
  const size_t limb_shift = bits / 32;
  const int bit_shift = static_cast<int>(bits % 32);
  const std::vector<uint32_t>& limbs = big_->limbs;
  if (limb_shift >= limbs.size()) return BigInt();
  std::vector<uint32_t> shifted(
      limbs.begin() + static_cast<ptrdiff_t>(limb_shift), limbs.end());
  if (bit_shift > 0) {
    uint32_t carry = 0;
    for (size_t i = shifted.size(); i-- > 0;) {
      uint32_t cur = shifted[i];
      shifted[i] = (cur >> bit_shift) | carry;
      carry = cur << (32 - bit_shift);
    }
  }
  return FromLimbs(big_->negative, std::move(shifted));
}

size_t BigInt::Hash() const {
  // Values in canonical form: hash via the limb decomposition so small
  // and big paths can never disagree (equal values share representation
  // anyway, but keep the hash purely value-based).
  if (!big_) {
    uint64_t magnitude = MagnitudeOf(small_);
    size_t h = small_ < 0 ? 0x9e3779b97f4a7c15ULL : 0;
    while (magnitude) {
      h ^= static_cast<uint32_t>(magnitude & 0xffffffffULL) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      magnitude >>= 32;
    }
    return h;
  }
  size_t h = big_->negative ? 0x9e3779b97f4a7c15ULL : 0;
  for (uint32_t limb : big_->limbs) {
    h ^= limb + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace ccdb
