#ifndef CCDB_CONSTRAINT_CONJUNCTION_H_
#define CCDB_CONSTRAINT_CONJUNCTION_H_

/// \file conjunction.h
/// Conjunctions of atomic constraints.
///
/// A `Conjunction` is the formula φ(t) of a constraint tuple (Definition 1
/// of the paper): the conjunction of a finite set of atomic linear
/// constraints. CCDB keeps conjunctions deduplicated and canonical, drops
/// trivially-true members, and collapses to an explicit "false" state on a
/// trivially-false member so that unsatisfiable tuples are cheap to detect
/// early. It also keeps one bound per side: at most one single-variable
/// inequality per variable bounds it from above, and at most one from
/// below, the tightest that was added. Every store is built through
/// `Add`, so selections, joins and projections never carry a bound that
/// another member of the same store implies.
///
/// The members are one flat vector kept sorted by `Constraint::operator<`
/// and free of duplicates: iteration visits them in that order, and `Add`
/// inserts at the binary-searched position.

#include <set>
#include <string>
#include <vector>

#include "constraint/constraint.h"

namespace ccdb {

/// A finite conjunction of atomic constraints (a constraint tuple's formula).
class Conjunction {
 public:
  /// The empty conjunction (equivalent to `true`).
  Conjunction() = default;

  /// Builds from a list of constraints.
  explicit Conjunction(const std::vector<Constraint>& constraints);

  /// The canonical unsatisfiable conjunction.
  static Conjunction False();

  /// Adds a constraint; trivially-true members are dropped, a
  /// trivially-false member collapses the conjunction to `false`.
  /// A single-variable inequality (`a·v + k <= 0` or `< 0`) bounds `v`
  /// from above when `a > 0` and from below when `a < 0`. It is dropped
  /// when the store already bounds `v` on that side at least as tightly,
  /// and otherwise replaces that bound; at equal values `<` is tighter
  /// than `<=`. The result is the same set of points, and the same
  /// representation whatever order the members arrive in. Governance is
  /// charged for each member actually inserted.
  void Add(Constraint constraint);

  /// Conjoins all constraints of `other` (a no-op when `other` is this
  /// store).
  void AddAll(const Conjunction& other);

  /// The conjunction of `a` and `b`.
  static Conjunction And(const Conjunction& a, const Conjunction& b);

  /// The stored constraints in sorted order, without duplicates (empty
  /// when trivially true OR false; check `IsKnownFalse` to distinguish).
  const std::vector<Constraint>& constraints() const { return constraints_; }

  size_t size() const { return constraints_.size(); }

  /// True when a syntactically-false member was added. Note the converse
  /// does not hold: a conjunction can be unsatisfiable without being known
  /// false — use `fm::IsSatisfiable` for the semantic test.
  bool IsKnownFalse() const { return known_false_; }

  /// True when the conjunction holds no constraints and is not false —
  /// i.e. it is the formula `true` (every point satisfies it).
  bool IsTriviallyTrue() const {
    return !known_false_ && constraints_.empty();
  }

  /// All variables mentioned by any member.
  std::set<std::string> Variables() const;

  bool Mentions(const std::string& var) const;

  /// True if `point` (covering all mentioned variables) satisfies every
  /// member. A known-false conjunction is satisfied by nothing.
  bool IsSatisfiedBy(const Assignment& point) const;

  /// Substitutes `var := replacement` in every member.
  Conjunction Substitute(const std::string& var,
                         const LinearExpr& replacement) const;

  /// Renames a variable in every member.
  Conjunction RenameVariable(const std::string& from,
                             const std::string& to) const;

  /// Syntactic identity (canonical forms compared member-wise).
  bool operator==(const Conjunction& other) const {
    return known_false_ == other.known_false_ &&
           constraints_ == other.constraints_;
  }
  bool operator!=(const Conjunction& other) const {
    return !(*this == other);
  }
  bool operator<(const Conjunction& other) const {
    if (known_false_ != other.known_false_) return known_false_;
    return constraints_ < other.constraints_;
  }

  /// Renders as "c1 AND c2 AND ..." ("true"/"false" when degenerate), in the
  /// pretty constant-on-the-right style.
  std::string ToString() const;

 private:
  std::vector<Constraint> constraints_;  // sorted, duplicate-free
  bool known_false_ = false;
};

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_CONJUNCTION_H_
