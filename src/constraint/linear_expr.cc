#include "constraint/linear_expr.h"

#include <cassert>

namespace ccdb {

namespace {
const Rational kZero;
}  // namespace

LinearExpr LinearExpr::Variable(const std::string& var) {
  return Term(var, Rational(1));
}

LinearExpr LinearExpr::Term(const std::string& var, Rational coeff) {
  LinearExpr expr;
  if (!coeff.IsZero()) expr.terms_.emplace(var, std::move(coeff));
  return expr;
}

const Rational& LinearExpr::Coeff(const std::string& var) const {
  auto it = terms_.find(var);
  return it == terms_.end() ? kZero : it->second;
}

std::set<std::string> LinearExpr::Variables() const {
  std::set<std::string> vars;
  for (const auto& [var, coeff] : terms_) vars.insert(var);
  return vars;
}

LinearExpr LinearExpr::operator+(const LinearExpr& other) const {
  LinearExpr out = *this;
  out.constant_ += other.constant_;
  for (const auto& [var, coeff] : other.terms_) out.AddTerm(var, coeff);
  return out;
}

LinearExpr LinearExpr::operator-(const LinearExpr& other) const {
  return *this + (-other);
}

LinearExpr LinearExpr::operator-() const {
  LinearExpr out;
  out.constant_ = -constant_;
  for (const auto& [var, coeff] : terms_) out.terms_.emplace(var, -coeff);
  return out;
}

LinearExpr LinearExpr::operator*(const Rational& factor) const {
  LinearExpr out;
  if (factor.IsZero()) return out;
  out.constant_ = constant_ * factor;
  for (const auto& [var, coeff] : terms_) {
    out.terms_.emplace(var, coeff * factor);
  }
  return out;
}

void LinearExpr::AddTerm(const std::string& var, const Rational& coeff) {
  if (coeff.IsZero()) return;
  auto [it, inserted] = terms_.emplace(var, coeff);
  if (!inserted) {
    it->second += coeff;
    if (it->second.IsZero()) terms_.erase(it);
  }
}

bool LinearExpr::AppendTerm(std::string var, Rational coeff) {
  if (coeff.IsZero()) return false;
  if (!terms_.empty() && !(terms_.rbegin()->first < var)) return false;
  terms_.emplace_hint(terms_.end(), std::move(var), std::move(coeff));
  return true;
}

LinearExpr LinearExpr::Substitute(const std::string& var,
                                  const LinearExpr& replacement) const {
  auto it = terms_.find(var);
  if (it == terms_.end()) return *this;
  Rational coeff = it->second;
  LinearExpr out = *this;
  out.terms_.erase(var);
  return out + replacement * coeff;
}

LinearExpr LinearExpr::RenameVariable(const std::string& from,
                                      const std::string& to) const {
  auto it = terms_.find(from);
  if (it == terms_.end()) return *this;
  assert(terms_.find(to) == terms_.end() && "rename target already present");
  LinearExpr out = *this;
  Rational coeff = it->second;
  out.terms_.erase(from);
  out.terms_.emplace(to, std::move(coeff));
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
