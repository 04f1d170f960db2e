#include "constraint/linear_expr.h"

#include <algorithm>
#include <cassert>

namespace ccdb {

namespace {
const Rational kZero;

/// The first term of `terms` (const or not) whose name is not below `var`.
template <typename Terms>
auto LowerBound(Terms& terms, const std::string& var) {
  return std::lower_bound(terms.begin(), terms.end(), var,
                          [](const auto& term, const std::string& name) {
                            return term.first < name;
                          });
}
}  // namespace

LinearExpr LinearExpr::Variable(const std::string& var) {
  return Term(var, Rational(1));
}

LinearExpr LinearExpr::Term(const std::string& var, Rational coeff) {
  LinearExpr expr;
  if (!coeff.IsZero()) expr.terms_.emplace_back(var, std::move(coeff));
  return expr;
}

const Rational& LinearExpr::Coeff(const std::string& var) const {
  auto it = LowerBound(terms_, var);
  return it != terms_.end() && it->first == var ? it->second : kZero;
}

bool LinearExpr::Mentions(const std::string& var) const {
  auto it = LowerBound(terms_, var);
  return it != terms_.end() && it->first == var;
}

std::set<std::string> LinearExpr::Variables() const {
  std::set<std::string> vars;
  for (const auto& [var, coeff] : terms_) vars.insert(vars.end(), var);
  return vars;
}

LinearExpr LinearExpr::Combine(const LinearExpr& a, const LinearExpr& b,
                               bool subtract) {
  LinearExpr out(subtract ? a.constant_ - b.constant_
                          : a.constant_ + b.constant_);
  out.terms_.reserve(a.terms_.size() + b.terms_.size());
  auto i = a.terms_.begin();
  auto j = b.terms_.begin();
  while (i != a.terms_.end() || j != b.terms_.end()) {
    const int cmp = i == a.terms_.end()   ? 1
                    : j == b.terms_.end() ? -1
                                          : i->first.compare(j->first);
    if (cmp < 0) {
      out.terms_.push_back(*i++);
    } else if (cmp > 0) {
      out.terms_.emplace_back(j->first, subtract ? -j->second : j->second);
      ++j;
    } else {
      Rational sum = subtract ? i->second - j->second : i->second + j->second;
      if (!sum.IsZero()) out.terms_.emplace_back(i->first, std::move(sum));
      ++i;
      ++j;
    }
  }
  return out;
}

LinearExpr LinearExpr::operator+(const LinearExpr& other) const {
  return Combine(*this, other, /*subtract=*/false);
}

LinearExpr LinearExpr::operator-(const LinearExpr& other) const {
  return Combine(*this, other, /*subtract=*/true);
}

LinearExpr LinearExpr::operator-() const {
  LinearExpr out(-constant_);
  out.terms_.reserve(terms_.size());
  for (const auto& [var, coeff] : terms_) out.terms_.emplace_back(var, -coeff);
  return out;
}

LinearExpr LinearExpr::operator*(const Rational& factor) const {
  LinearExpr out;
  if (factor.IsZero()) return out;
  out.constant_ = constant_ * factor;
  out.terms_.reserve(terms_.size());
  for (const auto& [var, coeff] : terms_) {
    out.terms_.emplace_back(var, coeff * factor);
  }
  return out;
}

void LinearExpr::AddTerm(const std::string& var, const Rational& coeff) {
  if (coeff.IsZero()) return;
  auto it = LowerBound(terms_, var);
  if (it == terms_.end() || it->first != var) {
    terms_.emplace(it, var, coeff);
    return;
  }
  it->second += coeff;
  if (it->second.IsZero()) terms_.erase(it);
}

bool LinearExpr::AppendTerm(std::string var, Rational coeff) {
  if (coeff.IsZero()) return false;
  if (!terms_.empty() && !(terms_.back().first < var)) return false;
  terms_.emplace_back(std::move(var), std::move(coeff));
  return true;
}

LinearExpr LinearExpr::Substitute(const std::string& var,
                                  const LinearExpr& replacement) const {
  auto it = LowerBound(terms_, var);
  if (it == terms_.end() || it->first != var) return *this;
  LinearExpr rest(constant_);
  rest.terms_.reserve(terms_.size() - 1);
  rest.terms_.insert(rest.terms_.end(), terms_.begin(), it);
  rest.terms_.insert(rest.terms_.end(), it + 1, terms_.end());
  return rest + replacement * it->second;
}

LinearExpr LinearExpr::RenameVariable(const std::string& from,
                                      const std::string& to) const {
  auto it = LowerBound(terms_, from);
  if (it == terms_.end() || it->first != from) return *this;
  assert(!Mentions(to) && "rename target already present");
  LinearExpr out = *this;
  out.terms_.erase(out.terms_.begin() + (it - terms_.begin()));
  out.terms_.emplace(LowerBound(out.terms_, to), to, it->second);
  return out;
}

Rational LinearExpr::Evaluate(const Assignment& point) const {
  Rational value = constant_;
  for (const auto& [var, coeff] : terms_) {
    auto it = point.find(var);
    assert(it != point.end() && "assignment missing a mentioned variable");
    value += coeff * it->second;
  }
  return value;
}

bool LinearExpr::operator<(const LinearExpr& other) const {
  auto lhs = terms_.begin();
  auto rhs = other.terms_.begin();
  for (; lhs != terms_.end() && rhs != other.terms_.end(); ++lhs, ++rhs) {
    if (lhs->first != rhs->first) return lhs->first < rhs->first;
    int cmp = lhs->second.Compare(rhs->second);
    if (cmp != 0) return cmp < 0;
  }
  if (lhs != terms_.end()) return false;
  if (rhs != other.terms_.end()) return true;
  return constant_ < other.constant_;
}

std::string LinearExpr::ToString() const {
  if (terms_.empty()) return constant_.ToString();
  std::string out;
  bool first = true;
  for (const auto& [var, coeff] : terms_) {
    if (first) {
      if (coeff == Rational(1)) {
        out += var;
      } else if (coeff == Rational(-1)) {
        out += "-" + var;
      } else {
        out += coeff.ToString() + var;
      }
      first = false;
      continue;
    }
    if (coeff.Sign() > 0) {
      out += " + ";
      out += (coeff == Rational(1)) ? var : coeff.ToString() + var;
    } else {
      out += " - ";
      Rational mag = coeff.Abs();
      out += (mag == Rational(1)) ? var : mag.ToString() + var;
    }
  }
  if (!constant_.IsZero()) {
    if (constant_.Sign() > 0) {
      out += " + " + constant_.ToString();
    } else {
      out += " - " + constant_.Abs().ToString();
    }
  }
  return out;
}

}  // namespace ccdb
