#ifndef CCDB_CONSTRAINT_LINEAR_EXPR_H_
#define CCDB_CONSTRAINT_LINEAR_EXPR_H_

/// \file linear_expr.h
/// Linear expressions over named variables with rational coefficients.
///
/// A `LinearExpr` is `constant + Σ coeff_i · var_i`. It is the building
/// block of CCDB's constraint class: every atomic constraint is a linear
/// expression compared against zero. Variables are attribute names from the
/// relation schema (§2.3 of the paper ranges constraint variables over the
/// rationals).
///
/// The terms are one flat vector sorted by name, so a two-variable
/// expression is one allocation: iteration visits names in order, sums
/// merge, and lookups binary-search.

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "num/rational.h"

namespace ccdb {

/// A variable assignment: attribute name -> rational value.
using Assignment = std::map<std::string, Rational>;

/// Immutable-by-convention linear expression `constant + Σ coeff·var`.
///
/// Invariant: terms are sorted by strictly increasing name, and no stored
/// coefficient is zero.
class LinearExpr {
 public:
  /// The `coeff·var` terms, sorted by name.
  using Terms = std::vector<std::pair<std::string, Rational>>;

  /// The zero expression.
  LinearExpr() = default;

  /// A constant expression.
  explicit LinearExpr(Rational constant) : constant_(std::move(constant)) {}

  /// The expression `1·var`.
  static LinearExpr Variable(const std::string& var);

  /// The expression `coeff·var`.
  static LinearExpr Term(const std::string& var, Rational coeff);

  /// The constant expression `value`.
  static LinearExpr Constant(Rational value) {
    return LinearExpr(std::move(value));
  }

  /// Coefficient of `var` (zero if absent).
  const Rational& Coeff(const std::string& var) const;

  const Rational& constant() const { return constant_; }
  const Terms& terms() const { return terms_; }

  /// True if the expression has no variable terms.
  bool IsConstant() const { return terms_.empty(); }

  /// True if this is the zero expression.
  bool IsZero() const { return terms_.empty() && constant_.IsZero(); }

  /// Set of variables with non-zero coefficients.
  std::set<std::string> Variables() const;

  /// True if `var` occurs with non-zero coefficient.
  bool Mentions(const std::string& var) const;

  LinearExpr operator+(const LinearExpr& other) const;
  LinearExpr operator-(const LinearExpr& other) const;
  LinearExpr operator-() const;

  /// Scales every coefficient and the constant by `factor`.
  LinearExpr operator*(const Rational& factor) const;

  /// Adds `coeff·var` in place.
  void AddTerm(const std::string& var, const Rational& coeff);

  /// Adds a constant in place.
  void AddConstant(const Rational& value) { constant_ += value; }

  /// Replaces the constant.
  void SetConstant(Rational value) { constant_ = std::move(value); }

  /// Appends `coeff·var` after the present terms, for decoders that read
  /// terms in order. False, and no change, unless `coeff` is non-zero and
  /// `var` sorts strictly after every present variable.
  bool AppendTerm(std::string var, Rational coeff);

  /// Replaces every occurrence of `var` with `replacement`
  /// (e.g. Gaussian substitution of an equality).
  LinearExpr Substitute(const std::string& var,
                        const LinearExpr& replacement) const;

  /// Renames variable `from` to `to`; `to` must not already occur.
  LinearExpr RenameVariable(const std::string& from,
                            const std::string& to) const;

  /// Evaluates at a point. Variables absent from `point` are an error in
  /// debug builds; callers must supply all mentioned variables.
  Rational Evaluate(const Assignment& point) const;

  bool operator==(const LinearExpr& other) const {
    return constant_ == other.constant_ && terms_ == other.terms_;
  }
  bool operator!=(const LinearExpr& other) const { return !(*this == other); }

  /// Total order for canonical storage (lexicographic on terms, constant).
  bool operator<(const LinearExpr& other) const;

  /// Human-readable form, e.g. "2x + 3/2y - 7".
  std::string ToString() const;

 private:
  /// `a + b`, or `a - b` when `subtract`: one merge of the sorted terms.
  static LinearExpr Combine(const LinearExpr& a, const LinearExpr& b,
                            bool subtract);

  Terms terms_;
  Rational constant_;
};

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_LINEAR_EXPR_H_
