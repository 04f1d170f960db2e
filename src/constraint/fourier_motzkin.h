#ifndef CCDB_CONSTRAINT_FOURIER_MOTZKIN_H_
#define CCDB_CONSTRAINT_FOURIER_MOTZKIN_H_

/// \file fourier_motzkin.h
/// Fourier–Motzkin variable elimination and derived decision procedures.
///
/// This is the constraint-solving core that makes CQA's closure principle
/// (§2.5 of the paper) executable for rational linear constraints:
///
///  - `EliminateVariable` / `Project` implement the existential quantifier —
///    the engine behind the CQA *project* operator. `Project` settles a
///    box (every member mentions one variable) by its intervals, with
///    FM's exact result and no elimination.
///  - `IsSatisfiable` decides emptiness of a constraint tuple (project
///    onto no variable, inspect the residual ground constraints); it is
///    sound and complete over the rationals (a dense order), including
///    strict inequalities. For a box it is one interval check per
///    variable.
///  - `Entails` reduces to unsatisfiability of the conjunction with the
///    negated constraint.
///  - `RemoveRedundant` minimizes a tuple's representation, keeping query
///    outputs small (important after joins, whose naive outputs accumulate
///    redundant members).
///  - `VariableInterval` / `BoundingBox` extract the attribute ranges that
///    the index layer (§5) uses as R*-tree keys and that each relation
///    version caches for the CQA operators' filter-and-refine
///    (`Relation::Boxes`). `VariableInterval` projects onto its variable,
///    so a box gets its exact interval without elimination.
///    `SingleVariableBounds` reads ranges off single-variable members
///    without eliminating anything: `Select`'s filter box, and the exact
///    path of `BoundingBox` that reads every column of a box in one pass.
///
/// Equalities are eliminated by Gaussian substitution before inequality
/// pairing, which both preserves exactness and avoids the quadratic blowup
/// of translating `=` into `<= ∧ >=`.

#include <map>
#include <optional>
#include <set>
#include <string>

#include "constraint/conjunction.h"

namespace ccdb::fm {

/// One-sided bound on a variable.
struct Bound {
  Rational value;
  bool strict = false;  ///< true for <, false for <=

  bool operator==(const Bound& other) const {
    return value == other.value && strict == other.strict;
  }
};

/// A (possibly unbounded / empty) interval of rationals.
struct Interval {
  std::optional<Bound> lower;  ///< absent = unbounded below
  std::optional<Bound> upper;  ///< absent = unbounded above
  bool empty = false;          ///< true when no value satisfies the bounds

  /// True when the interval pins exactly one value.
  bool IsPoint() const {
    return !empty && lower && upper && !lower->strict && !upper->strict &&
           lower->value == upper->value;
  }

  /// True if `v` lies inside the interval.
  bool Contains(const Rational& v) const;

  /// True when some value lies in both intervals. Closed bounds that touch
  /// (`[1, 2]` and `[2, 3]`) share their endpoint; an empty interval
  /// shares nothing.
  bool Overlaps(const Interval& other) const;

  /// Renders like "[1, 3)" / "(-inf, 2]" / "empty".
  std::string ToString() const;
};

/// Per-attribute intervals, keyed by variable name.
using Box = std::map<std::string, Interval>;

/// Existentially eliminates `var`: the result is satisfied by exactly the
/// assignments (to the remaining variables) that extend to a satisfying
/// assignment of `input`. Returns `input` unchanged if `var` is absent.
Conjunction EliminateVariable(const Conjunction& input,
                              const std::string& var);

/// Projects onto `keep`: eliminates every variable of `input` not in
/// `keep`, cheapest-first (fewest lower×upper products). When every member
/// mentions one variable, the result is the kept variables' members, or
/// `False()` when an eliminated variable's interval is empty; nothing is
/// eliminated and `LayerCounters::box_solves` counts the call if it had a
/// variable to eliminate.
Conjunction Project(const Conjunction& input,
                    const std::set<std::string>& keep);

/// Decides satisfiability over the rationals (exact).
bool IsSatisfiable(const Conjunction& input);

/// True when every rational point satisfying `premise` satisfies `claim`.
bool Entails(const Conjunction& premise, const Constraint& claim);

/// True when the two conjunctions have identical rational solution sets.
bool AreEquivalent(const Conjunction& a, const Conjunction& b);

/// Removes members entailed by the remaining members. The result is
/// equivalent to the input; an unsatisfiable input collapses to `False()`.
Conjunction RemoveRedundant(const Conjunction& input);

/// Tightest interval containing the projection of `input`'s solution set
/// onto `var`. An unsatisfiable input yields an empty interval; a variable
/// that is unconstrained yields (-inf, +inf). When every member mentions
/// one variable, `Project` settles the box and no FM runs.
Interval VariableInterval(const Conjunction& input, const std::string& var);

/// `VariableInterval` for each of `vars` in one call (the per-attribute
/// bounding box used for R*-tree keys, §5 of the paper).
Box BoundingBox(const Conjunction& input, const std::set<std::string>& vars);

/// The interval of each of `vars` read off the members of `input` that
/// mention exactly one variable; members over several variables are
/// skipped and nothing is eliminated. The result is the exact
/// `BoundingBox` when every member mentions one variable, and a sound
/// outer box otherwise. Every interval is empty when `input` is known
/// false or the single-variable members of any variable, listed in `vars`
/// or not, admit no value.
Box SingleVariableBounds(const Conjunction& input,
                         const std::set<std::string>& vars);

}  // namespace ccdb::fm

#endif  // CCDB_CONSTRAINT_FOURIER_MOTZKIN_H_
