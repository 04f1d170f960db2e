#include "constraint/conjunction.h"

#include <algorithm>

#include "obs/governance.h"

namespace ccdb {

namespace {
/// Approximate footprint of one stored constraint: its slot in the store's
/// vector plus one (name, rational) entry per term in the expression's.
/// Names within the short-string limit and integers within +/-2^62 stay
/// inside those. The governance memory budget meters cumulative
/// allocation, so a rough per-constraint estimate is enough to bound
/// Fourier–Motzkin blowups.
uint64_t ApproxConstraintBytes(const Constraint& c) {
  return sizeof(Constraint) +
         sizeof(LinearExpr::Terms::value_type) * c.expr().terms().size();
}

/// The side from which `c` bounds its one variable: +1 from above (a
/// positive coefficient), -1 from below, and 0 when `c` is an equality or
/// mentions more than one variable.
int BoundSide(const Constraint& c) {
  if (c.op() == ConstraintOp::kEq || c.expr().terms().size() != 1) return 0;
  return c.expr().terms().begin()->second.Sign();
}

/// True when `fresh` is strictly tighter than `held`, two bounds on one
/// variable from `side`. For `a·v + k` the bound is `-k/a`, and on either
/// side the tighter one has the larger `k/|a|`. Canonical coefficients and
/// constants are integers and `a·a' > 0`, so `k·a'` against `k'·a` decides
/// it (flipped below, where both coefficients are negative) with no
/// division. At equal values `<` is tighter than `<=`.
bool Tighter(const Constraint& fresh, const Constraint& held, int side) {
  const BigInt& a = fresh.expr().terms().begin()->second.numerator();
  const BigInt& held_a = held.expr().terms().begin()->second.numerator();
  int cmp = (fresh.expr().constant().numerator() * held_a)
                .Compare(held.expr().constant().numerator() * a);
  if (side < 0) cmp = -cmp;
  return cmp > 0 || (cmp == 0 && fresh.op() == ConstraintOp::kLt &&
                     held.op() == ConstraintOp::kLe);
}
}  // namespace

Conjunction::Conjunction(const std::vector<Constraint>& constraints) {
  for (const Constraint& c : constraints) Add(c);
}

Conjunction Conjunction::False() {
  Conjunction out;
  out.known_false_ = true;
  return out;
}

void Conjunction::Add(Constraint constraint) {
  if (known_false_) return;
  if (constraint.IsTriviallyTrue()) return;
  if (constraint.IsTriviallyFalse()) {
    known_false_ = true;
    constraints_.clear();
    return;
  }
  // One bound per side. The scan does arithmetic only at a bound on the
  // same variable and side, so a store that is already minimal pays one
  // pass of op, size, sign and name checks.
  if (const int side = BoundSide(constraint)) {
    const std::string& var = constraint.expr().terms().begin()->first;
    for (auto it = constraints_.begin(); it != constraints_.end(); ++it) {
      if (BoundSide(*it) != side || it->expr().terms().begin()->first != var) {
        continue;
      }
      if (!Tighter(constraint, *it, side)) return;  // implied by `*it`
      constraints_.erase(it);  // implied by `constraint`
      break;
    }
  }
  auto pos =
      std::lower_bound(constraints_.begin(), constraints_.end(), constraint);
  if (pos != constraints_.end() && *pos == constraint) return;  // a duplicate
  // Governance charge: every materialized constraint counts against the
  // query's constraint and (approximate) memory budgets — this is the
  // meter that catches Fourier–Motzkin pairing blowups as they grow.
  obs::GovernanceConstraintCharge(ApproxConstraintBytes(constraint));
  constraints_.insert(pos, std::move(constraint));
}

void Conjunction::AddAll(const Conjunction& other) {
  // A store conjoined with itself is unchanged: every member is present.
  if (&other == this) return;
  if (other.known_false_) {
    known_false_ = true;
    constraints_.clear();
    return;
  }
  for (const Constraint& c : other.constraints_) Add(c);
}

Conjunction Conjunction::And(const Conjunction& a, const Conjunction& b) {
  Conjunction out = a;
  out.AddAll(b);
  return out;
}

std::set<std::string> Conjunction::Variables() const {
  std::set<std::string> vars;
  for (const Constraint& c : constraints_) {
    for (const auto& [var, coeff] : c.expr().terms()) vars.insert(var);
  }
  return vars;
}

bool Conjunction::Mentions(const std::string& var) const {
  for (const Constraint& c : constraints_) {
    if (c.Mentions(var)) return true;
  }
  return false;
}

bool Conjunction::IsSatisfiedBy(const Assignment& point) const {
  if (known_false_) return false;
  for (const Constraint& c : constraints_) {
    if (!c.IsSatisfiedBy(point)) return false;
  }
  return true;
}

Conjunction Conjunction::Substitute(const std::string& var,
                                    const LinearExpr& replacement) const {
  if (known_false_) return *this;
  Conjunction out;
  for (const Constraint& c : constraints_) {
    out.Add(c.Substitute(var, replacement));
    if (out.known_false_) break;
  }
  return out;
}

Conjunction Conjunction::RenameVariable(const std::string& from,
                                        const std::string& to) const {
  if (known_false_) return *this;
  Conjunction out;
  for (const Constraint& c : constraints_) {
    out.Add(c.RenameVariable(from, to));
  }
  return out;
}

std::string Conjunction::ToString() const {
  if (known_false_) return "false";
  if (constraints_.empty()) return "true";
  std::string out;
  bool first = true;
  for (const Constraint& c : constraints_) {
    if (!first) out += " AND ";
    out += c.ToPrettyString();
    first = false;
  }
  return out;
}

}  // namespace ccdb
