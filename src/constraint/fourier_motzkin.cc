#include "constraint/fourier_motzkin.h"

#include <cassert>
#include <vector>

#include "obs/governance.h"
#include "obs/trace.h"

// Governance bail-outs: FM functions return Conjunctions by value and
// cannot propagate a Status, so when the active query has tripped its
// deadline / cancellation (obs::GovernanceAborting()) the loops below
// return early with a partial — semantically WRONG — value. The contract
// (see obs/governance.h) is that the nearest Status-returning caller
// checks obs::CheckGovernance() before using FM output, which converts
// the latched trip into a typed error and discards the garbage. Under
// budget truncation (allow_partial) FM never bails: a partial result must
// stay a sound subset, so in-flight constraint math runs to completion.

namespace ccdb::fm {

namespace {

/// Picks an equality mentioning `var`, if any.
const Constraint* FindEqualityWith(const Conjunction& input,
                                   const std::string& var) {
  for (const Constraint& c : input.constraints()) {
    if (c.op() == ConstraintOp::kEq && c.Mentions(var)) return &c;
  }
  return nullptr;
}

/// Cost heuristic for eliminating `var`: number of pairings FM would create.
/// Equality substitution is always preferred (cost 0).
size_t EliminationCost(const Conjunction& input, const std::string& var) {
  if (FindEqualityWith(input, var) != nullptr) return 0;
  size_t lowers = 0;
  size_t uppers = 0;
  for (const Constraint& c : input.constraints()) {
    int sign = c.expr().Coeff(var).Sign();
    if (sign > 0) ++uppers;  // a·v + r <= 0, a > 0  =>  v <= -r/a
    if (sign < 0) ++lowers;
  }
  return lowers * uppers;
}

/// True when no value lies at or below `upper` and at or above `lower`.
bool Separated(const std::optional<Bound>& upper,
               const std::optional<Bound>& lower) {
  if (!upper || !lower) return false;
  int cmp = upper->value.Compare(lower->value);
  return cmp < 0 || (cmp == 0 && (upper->strict || lower->strict));
}

/// Keeps the tighter of `*lower` and `bound`; at equal values the strict
/// bound is the tighter one.
void TightenLower(std::optional<Bound>* lower, const Bound& bound) {
  if (!*lower || bound.value > (*lower)->value ||
      (bound.value == (*lower)->value && bound.strict)) {
    *lower = bound;
  }
}

void TightenUpper(std::optional<Bound>* upper, const Bound& bound) {
  if (!*upper || bound.value < (*upper)->value ||
      (bound.value == (*upper)->value && bound.strict)) {
    *upper = bound;
  }
}

/// Narrows `interval` by `c`, a member whose only variable is `var`.
void Narrow(const Constraint& c, const std::string& var, Interval* interval) {
  const Rational& a = c.expr().Coeff(var);
  assert(!a.IsZero() && "member does not mention the variable");
  // a·v + k op 0  =>  v op' -k/a  (op' flips direction when a < 0).
  Bound bound{-c.expr().constant() / a, c.op() == ConstraintOp::kLt};
  if (c.op() == ConstraintOp::kEq) {
    TightenLower(&interval->lower, bound);  // v = bound: both bounds
    TightenUpper(&interval->upper, bound);
  } else if (a.Sign() > 0) {
    TightenUpper(&interval->upper, bound);
  } else {
    TightenLower(&interval->lower, bound);
  }
}

Interval EmptyInterval() {
  Interval interval;
  interval.empty = true;
  return interval;
}

/// Collapses `interval` to empty when its bounds admit no value; returns
/// whether it is empty.
bool Settle(Interval* interval) {
  if (Separated(interval->upper, interval->lower)) *interval = EmptyInterval();
  return interval->empty;
}

bool EveryMemberSingleVariable(const Conjunction& input) {
  for (const Constraint& c : input.constraints()) {
    if (c.expr().terms().size() != 1) return false;
  }
  return true;
}

}  // namespace

bool Interval::Contains(const Rational& v) const {
  if (empty) return false;
  if (lower) {
    int cmp = v.Compare(lower->value);
    if (cmp < 0 || (cmp == 0 && lower->strict)) return false;
  }
  if (upper) {
    int cmp = v.Compare(upper->value);
    if (cmp > 0 || (cmp == 0 && upper->strict)) return false;
  }
  return true;
}

bool Interval::Overlaps(const Interval& other) const {
  return !empty && !other.empty && !Separated(upper, other.lower) &&
         !Separated(other.upper, lower);
}

std::string Interval::ToString() const {
  if (empty) return "empty";
  std::string out;
  out += lower ? (lower->strict ? "(" : "[") + lower->value.ToString()
               : "(-inf";
  out += ", ";
  out += upper ? upper->value.ToString() + (upper->strict ? ")" : "]")
               : "+inf)";
  return out;
}

Conjunction EliminateVariable(const Conjunction& input,
                              const std::string& var) {
  if (input.IsKnownFalse()) return Conjunction::False();
  if (!input.Mentions(var)) return input;
  obs::NoteFmElimination();

  // Gaussian step: if an equality a·v + r = 0 mentions v, substitute
  // v := -r/a into every other member and drop the equality.
  if (const Constraint* eq = FindEqualityWith(input, var)) {
    const Rational& a = eq->expr().Coeff(var);
    assert(!a.IsZero());
    LinearExpr rest = eq->expr() - LinearExpr::Term(var, a);
    LinearExpr replacement = rest * (-a.Inverse());
    Conjunction out;
    for (const Constraint& c : input.constraints()) {
      if (&c == eq) continue;
      out.Add(c.Substitute(var, replacement));
      if (out.IsKnownFalse()) return Conjunction::False();
    }
    return out;
  }

  // FM pairing step over inequalities.
  std::vector<const Constraint*> lowers;  // coeff(v) < 0: bound v from below
  std::vector<const Constraint*> uppers;  // coeff(v) > 0: bound v from above
  Conjunction out;
  for (const Constraint& c : input.constraints()) {
    int sign = c.expr().Coeff(var).Sign();
    if (sign == 0) {
      out.Add(c);
    } else if (sign > 0) {
      uppers.push_back(&c);
    } else {
      lowers.push_back(&c);
    }
  }
  for (const Constraint* lo : lowers) {
    const Rational& b = lo->expr().Coeff(var);  // b < 0
    for (const Constraint* hi : uppers) {
      // The lowers×uppers pairing is THE quadratic blowup of FM; bail
      // between pairs once the query is past its deadline / cancelled.
      if (obs::GovernanceAborting()) return out;
      const Rational& a = hi->expr().Coeff(var);  // a > 0
      // From a·v + s <= 0 and b·v + r <= 0 derive a·r - b·s <= 0
      // (scale the upper by -b > 0 and the lower by a > 0, then add;
      // the v terms cancel exactly).
      LinearExpr combined = hi->expr() * (-b) + lo->expr() * a;
      bool strict = hi->op() == ConstraintOp::kLt ||
                    lo->op() == ConstraintOp::kLt;
      obs::NoteFmPairing();
      out.Add(Constraint(std::move(combined),
                         strict ? ConstraintOp::kLt : ConstraintOp::kLe));
      if (out.IsKnownFalse()) return Conjunction::False();
    }
  }
  return out;
}

Conjunction Project(const Conjunction& input,
                    const std::set<std::string>& keep) {
  if (!input.IsKnownFalse() && EveryMemberSingleVariable(input)) {
    // A box: eliminating a variable leaves the other variables' members
    // as they are, or yields false when its own interval is empty.
    Box dropped;
    Conjunction out;
    for (const Constraint& c : input.constraints()) {
      const std::string& var = c.expr().terms().begin()->first;
      if (keep.count(var)) {
        out.Add(c);
      } else {
        Narrow(c, var, &dropped[var]);
      }
    }
    if (dropped.empty()) return out;
    obs::NoteBoxSolve();
    for (auto& [var, interval] : dropped) {
      if (Settle(&interval)) return Conjunction::False();
    }
    return out;
  }
  Conjunction current = input;
  while (true) {
    if (obs::GovernanceAborting()) return current;
    if (current.IsKnownFalse()) return Conjunction::False();
    std::set<std::string> vars = current.Variables();
    std::string best;
    size_t best_cost = 0;
    bool found = false;
    for (const std::string& var : vars) {
      if (keep.count(var)) continue;
      size_t cost = EliminationCost(current, var);
      if (!found || cost < best_cost) {
        best = var;
        best_cost = cost;
        found = true;
      }
    }
    if (!found) return current;
    current = EliminateVariable(current, best);
  }
}

bool IsSatisfiable(const Conjunction& input) {
  Conjunction residual = Project(input, {});
  // A governance bail leaves the projection unfinished (variables remain);
  // answer conservatively — the caller's CheckGovernance() unwinds before
  // the answer can select or drop a tuple.
  if (obs::GovernanceAborting()) return true;
  // After eliminating every variable, members would be ground constraints;
  // Conjunction::Add resolves those to true/false on insertion, so the
  // residual is either known-false or empty.
  assert(residual.IsKnownFalse() || residual.constraints().empty());
  return !residual.IsKnownFalse();
}

bool Entails(const Conjunction& premise, const Constraint& claim) {
  if (premise.IsKnownFalse()) return true;  // vacuous
  for (const Constraint& negated : claim.Negate()) {
    Conjunction test = premise;
    test.Add(negated);
    if (IsSatisfiable(test)) return false;
  }
  return true;
}

bool AreEquivalent(const Conjunction& a, const Conjunction& b) {
  const bool a_sat = IsSatisfiable(a);
  const bool b_sat = IsSatisfiable(b);
  if (a_sat != b_sat) return false;
  if (!a_sat) return true;
  for (const Constraint& c : b.constraints()) {
    if (!Entails(a, c)) return false;
  }
  for (const Constraint& c : a.constraints()) {
    if (!Entails(b, c)) return false;
  }
  return true;
}

Conjunction RemoveRedundant(const Conjunction& input) {
  if (input.IsKnownFalse()) return Conjunction::False();
  if (!IsSatisfiable(input)) return Conjunction::False();
  std::vector<Constraint> kept(input.constraints().begin(),
                               input.constraints().end());
  // Greedy: try dropping each member; keep it only if the rest do not
  // entail it. Iterating over a shrinking set keeps the result equivalent.
  for (size_t i = 0; i < kept.size();) {
    if (obs::GovernanceAborting()) break;
    Conjunction rest;
    for (size_t j = 0; j < kept.size(); ++j) {
      if (j != i) rest.Add(kept[j]);
    }
    if (Entails(rest, kept[i])) {
      kept.erase(kept.begin() + static_cast<ptrdiff_t>(i));
      obs::NoteRedundancyCulls(1);
    } else {
      ++i;
    }
  }
  return Conjunction(kept);
}

Interval VariableInterval(const Conjunction& input, const std::string& var) {
  Conjunction onto = Project(input, {var});
  if (onto.IsKnownFalse()) return EmptyInterval();
  Interval interval;
  // A governance bail leaves other variables in `onto`; the caller's
  // CheckGovernance() discards whatever is returned.
  if (obs::GovernanceAborting()) return interval;
  for (const Constraint& c : onto.constraints()) Narrow(c, var, &interval);
  Settle(&interval);
  return interval;
}

Box BoundingBox(const Conjunction& input, const std::set<std::string>& vars) {
  if (EveryMemberSingleVariable(input)) {
    return SingleVariableBounds(input, vars);
  }
  Box box;
  for (const std::string& var : vars) {
    box.emplace(var, VariableInterval(input, var));
  }
  return box;
}

Box SingleVariableBounds(const Conjunction& input,
                         const std::set<std::string>& vars) {
  Box box;
  for (const std::string& var : vars) {
    box.emplace_hint(box.end(), var, Interval{});
  }
  Box others;  // variables outside `vars`, read only to detect emptiness
  for (const Constraint& c : input.constraints()) {
    if (c.expr().terms().size() != 1) continue;
    const std::string& var = c.expr().terms().begin()->first;
    auto it = box.find(var);
    Narrow(c, var, it != box.end() ? &it->second : &others[var]);
  }
  bool empty = input.IsKnownFalse();
  for (Box* read : {&box, &others}) {
    for (auto& [var, interval] : *read) empty = Settle(&interval) || empty;
  }
  if (empty) {
    for (auto& [var, interval] : box) interval = EmptyInterval();
  }
  return box;
}

}  // namespace ccdb::fm
