#include "constraint/constraint.h"

#include <cassert>

namespace ccdb {

const char* ConstraintOpName(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kEq:
      return "=";
    case ConstraintOp::kLe:
      return "<=";
    case ConstraintOp::kLt:
      return "<";
  }
  return "?";
}

Constraint::Constraint(LinearExpr expr, ConstraintOp op)
    : expr_(std::move(expr)), op_(op) {
  Canonicalize();
}

Result<Constraint> Constraint::FromCanonical(LinearExpr expr,
                                             ConstraintOp op) {
  if (expr.IsConstant()) {
    return Status::InvalidArgument("constraint has no terms");
  }
  BigInt gcd(0);
  for (const auto& [var, coeff] : expr.terms()) {
    if (!coeff.IsInteger()) {
      return Status::InvalidArgument("coefficient of " + var +
                                     " is not an integer");
    }
    if (!gcd.IsOne()) gcd = BigInt::Gcd(std::move(gcd), coeff.numerator());
  }
  if (!expr.constant().IsInteger()) {
    return Status::InvalidArgument("constant is not an integer");
  }
  if (!gcd.IsOne()) {
    gcd = BigInt::Gcd(std::move(gcd), expr.constant().numerator());
  }
  if (!gcd.IsOne()) {
    return Status::InvalidArgument("coefficients share the factor " +
                                   gcd.ToString());
  }
  if (op == ConstraintOp::kEq && expr.terms().begin()->second.Sign() < 0) {
    return Status::InvalidArgument(
        "equality has a negative leading coefficient");
  }
  return Constraint(std::move(expr), op, Adopted{});
}

Result<Constraint> Constraint::Make(const LinearExpr& lhs,
                                    const std::string& cmp,
                                    const LinearExpr& rhs) {
  if (cmp == "=" || cmp == "==") return Eq(lhs, rhs);
  if (cmp == "<=") return Le(lhs, rhs);
  if (cmp == "<") return Lt(lhs, rhs);
  if (cmp == ">=") return Ge(lhs, rhs);
  if (cmp == ">") return Gt(lhs, rhs);
  if (cmp == "!=" || cmp == "<>") {
    return Status::Unsupported(
        "'!=' is a disjunction, not an atomic constraint; split the tuple");
  }
  return Status::ParseError("unknown comparison operator '" + cmp + "'");
}

void Constraint::Canonicalize() {
  if (expr_.IsConstant()) return;
  // Scale so all coefficients (and the constant) become coprime integers:
  // multiply by lcm of denominators, divide by gcd of numerators. For
  // equalities additionally force the leading (first in term order)
  // coefficient positive — both sides of `= 0` are equivalent. A scale of
  // 1 (every integer expression's lcm, every coprime one's gcd) is skipped.
  BigInt denom_lcm(1);
  auto fold_lcm = [&denom_lcm](const Rational& value) {
    const BigInt& d = value.denominator();
    if (!d.IsOne()) denom_lcm = denom_lcm / BigInt::Gcd(denom_lcm, d) * d;
  };
  for (const auto& [var, coeff] : expr_.terms()) fold_lcm(coeff);
  fold_lcm(expr_.constant());
  if (!denom_lcm.IsOne()) expr_ = expr_ * Rational(denom_lcm);
  // Terms are non-zero, so the gcd is positive.
  BigInt num_gcd(0);
  for (const auto& [var, coeff] : expr_.terms()) {
    num_gcd = BigInt::Gcd(std::move(num_gcd), coeff.numerator());
    if (num_gcd.IsOne()) break;
  }
  if (!num_gcd.IsOne()) {
    num_gcd = BigInt::Gcd(std::move(num_gcd), expr_.constant().numerator());
  }
  if (!num_gcd.IsOne()) expr_ = expr_ * Rational(BigInt(1), num_gcd);
  if (op_ == ConstraintOp::kEq && expr_.terms().begin()->second.Sign() < 0) {
    expr_ = -expr_;
  }
}

bool Constraint::IsTriviallyTrue() const {
  if (!expr_.IsConstant()) return false;
  int sign = expr_.constant().Sign();
  switch (op_) {
    case ConstraintOp::kEq:
      return sign == 0;
    case ConstraintOp::kLe:
      return sign <= 0;
    case ConstraintOp::kLt:
      return sign < 0;
  }
  return false;
}

bool Constraint::IsTriviallyFalse() const {
  return expr_.IsConstant() && !IsTriviallyTrue();
}

bool Constraint::IsSatisfiedBy(const Assignment& point) const {
  int sign = expr_.Evaluate(point).Sign();
  switch (op_) {
    case ConstraintOp::kEq:
      return sign == 0;
    case ConstraintOp::kLe:
      return sign <= 0;
    case ConstraintOp::kLt:
      return sign < 0;
  }
  return false;
}

Constraint Constraint::Substitute(const std::string& var,
                                  const LinearExpr& replacement) const {
  return Constraint(expr_.Substitute(var, replacement), op_);
}

Constraint Constraint::RenameVariable(const std::string& from,
                                      const std::string& to) const {
  return Constraint(expr_.RenameVariable(from, to), op_);
}

std::vector<Constraint> Constraint::Negate() const {
  switch (op_) {
    case ConstraintOp::kLe:
      return {Constraint(-expr_, ConstraintOp::kLt)};
    case ConstraintOp::kLt:
      return {Constraint(-expr_, ConstraintOp::kLe)};
    case ConstraintOp::kEq:
      return {Constraint(expr_, ConstraintOp::kLt),
              Constraint(-expr_, ConstraintOp::kLt)};
  }
  return {};
}

bool Constraint::operator<(const Constraint& other) const {
  if (op_ != other.op_) return static_cast<int>(op_) < static_cast<int>(other.op_);
  return expr_ < other.expr_;
}

std::string Constraint::ToString() const {
  return expr_.ToString() + " " + ConstraintOpName(op_) + " 0";
}

std::string Constraint::ToPrettyString() const {
  LinearExpr lhs = expr_;
  Rational rhs = -expr_.constant();
  LinearExpr vars_only = lhs - LinearExpr::Constant(lhs.constant());
  return vars_only.ToString() + " " + ConstraintOpName(op_) + " " +
         rhs.ToString();
}

}  // namespace ccdb
