#ifndef CCDB_CONSTRAINT_CONSTRAINT_H_
#define CCDB_CONSTRAINT_CONSTRAINT_H_

/// \file constraint.h
/// Atomic linear constraints.
///
/// Every atomic constraint in CCDB is canonically `expr ⊲ 0` with
/// ⊲ ∈ {=, ≤, <}. Input forms using ≥ and > are normalized by negating the
/// expression; `≠` is not an atomic constraint in this class (it is a
/// disjunction, handled by producing two constraint tuples at the relation
/// layer, mirroring how the paper's DNF representation absorbs it).
///
/// Canonicalization scales the expression so coefficients are coprime
/// integers (with a positive leading coefficient for equalities), giving a
/// syntactic identity that makes duplicate detection exact.

#include <optional>
#include <string>
#include <vector>

#include "constraint/linear_expr.h"
#include "util/status.h"

namespace ccdb {

/// Canonical comparison operators: `expr Op 0`.
enum class ConstraintOp {
  kEq,  ///< expr = 0
  kLe,  ///< expr <= 0
  kLt,  ///< expr < 0
};

/// Name of an operator as used in rendered constraints ("=", "<=", "<").
const char* ConstraintOpName(ConstraintOp op);

/// An atomic linear constraint `expr ⊲ 0`, ⊲ ∈ {=, ≤, <}.
class Constraint {
 public:
  /// Builds `expr op 0` and canonicalizes.
  Constraint(LinearExpr expr, ConstraintOp op);

  /// Adopts `expr op 0` as already canonical, checking that form instead
  /// of recomputing it: at least one term, integer coefficients and
  /// constant whose gcd is 1, and for `=` a positive leading coefficient
  /// (non-zero, strictly ordered terms are `LinearExpr`'s own invariant).
  /// InvalidArgument otherwise. Decoders of stored constraints use this.
  static Result<Constraint> FromCanonical(LinearExpr expr, ConstraintOp op);

  /// Builds `lhs cmp rhs` where `cmp` is one of "=", "==", "<=", "<",
  /// ">=", ">" and canonicalizes. Rejects "!=" (not atomic) and unknown
  /// operators.
  static Result<Constraint> Make(const LinearExpr& lhs, const std::string& cmp,
                                 const LinearExpr& rhs);

  /// Convenience relational builders.
  static Constraint Eq(const LinearExpr& lhs, const LinearExpr& rhs) {
    return Constraint(lhs - rhs, ConstraintOp::kEq);
  }
  static Constraint Le(const LinearExpr& lhs, const LinearExpr& rhs) {
    return Constraint(lhs - rhs, ConstraintOp::kLe);
  }
  static Constraint Lt(const LinearExpr& lhs, const LinearExpr& rhs) {
    return Constraint(lhs - rhs, ConstraintOp::kLt);
  }
  static Constraint Ge(const LinearExpr& lhs, const LinearExpr& rhs) {
    return Le(rhs, lhs);
  }
  static Constraint Gt(const LinearExpr& lhs, const LinearExpr& rhs) {
    return Lt(rhs, lhs);
  }

  const LinearExpr& expr() const { return expr_; }
  ConstraintOp op() const { return op_; }

  /// True if the constraint has no variables and is satisfied
  /// (e.g. "-1 <= 0"); such constraints are trivially true.
  bool IsTriviallyTrue() const;

  /// True if the constraint has no variables and is violated
  /// (e.g. "1 <= 0").
  bool IsTriviallyFalse() const;

  /// Variables mentioned by the constraint.
  std::set<std::string> Variables() const { return expr_.Variables(); }

  bool Mentions(const std::string& var) const { return expr_.Mentions(var); }

  /// Evaluates the constraint at a point (all mentioned variables must be
  /// present in `point`).
  bool IsSatisfiedBy(const Assignment& point) const;

  /// Substitutes `var := replacement` and re-canonicalizes.
  Constraint Substitute(const std::string& var,
                        const LinearExpr& replacement) const;

  /// Renames a variable.
  Constraint RenameVariable(const std::string& from,
                            const std::string& to) const;

  /// The negation as a disjunction of atomic constraints:
  /// ¬(e<=0) = {-e<0};  ¬(e<0) = {-e<=0};  ¬(e=0) = {e<0, -e<0}.
  std::vector<Constraint> Negate() const;

  /// Syntactic identity (exact after canonicalization).
  bool operator==(const Constraint& other) const {
    return op_ == other.op_ && expr_ == other.expr_;
  }
  bool operator!=(const Constraint& other) const { return !(*this == other); }

  /// Total order for storage in ordered containers.
  bool operator<(const Constraint& other) const;

  /// Renders as e.g. "2x + 3y - 7 <= 0".
  std::string ToString() const;

  /// Renders with the constant moved to the right-hand side,
  /// e.g. "2x + 3y <= 7" (the style used in the paper's examples).
  std::string ToPrettyString() const;

 private:
  struct Adopted {};
  Constraint(LinearExpr expr, ConstraintOp op, Adopted)
      : expr_(std::move(expr)), op_(op) {}

  void Canonicalize();

  LinearExpr expr_;
  ConstraintOp op_;
};

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_CONSTRAINT_H_
