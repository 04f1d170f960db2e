#ifndef CCDB_CORE_CALCULUS_H_
#define CCDB_CORE_CALCULUS_H_

/// \file calculus.h
/// The Constraint Query Calculus (CQC), evaluated by translation to CQA.
///
/// §2.2 of the paper: CQC is "a generalization of relational calculus to
/// constraints", and CQA "was proven to have equivalent expressiveness to
/// CQC" — the declarative layer of Figure 1 that gets translated to
/// algebra for evaluation. CCDB makes the equivalence executable: a CQC
/// formula compiles bottom-up into a CQA plan, which `cqa::Optimize`
/// reorders and `cqa::Execute` runs like any step script.
///
/// Semantics match the CDB framework exactly:
///  - a constraint atom `x + y <= 2` alone IS a valid (infinite but
///    finitely representable) relation — no relational-calculus
///    range-restriction needed;
///  - a free variable absent from a disjunct is *broad* (all values), so
///    `x < 1 OR y < 1` evaluates over {x, y} by padding each side;
///  - negation is closed for constraint variables (the complement of a
///    linear DNF is a linear DNF, computed via Difference from the
///    universal relation) but REJECTED when the formula's free variables
///    include relational (string) ones — exactly the safety boundary the
///    framework prescribes (§2.4's closed-form requirement);
///  - ∃ is Fourier–Motzkin projection.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/plan.h"
#include "data/database.h"

namespace ccdb::cqc {

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// An immutable CQC formula tree.
class Formula {
 public:
  enum class Kind {
    kAtom,      ///< linear constraint over variables
    kStrAtom,   ///< string (in)equality over variables
    kRelation,  ///< R(v1, ..., vk): positional binding to R's attributes
    kAnd,
    kOr,
    kNot,
    kExists,
  };

  /// A linear-constraint atom, e.g. x + y <= 2.
  static FormulaPtr Atom(Constraint constraint);

  /// A string atom over variables, e.g. name = "Smith".
  static FormulaPtr StrAtom(StringAtom atom);

  /// A database atom R(v1, ..., vk): the i-th variable binds the i-th
  /// attribute of R. Repeating a variable expresses equality, e.g.
  /// R(x, x). Arity is checked at evaluation time.
  static FormulaPtr Rel(std::string relation, std::vector<std::string> vars);

  static FormulaPtr And(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Or(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Not(FormulaPtr inner);
  static FormulaPtr Exists(std::string var, FormulaPtr inner);
  /// Guard: a brace list of variables must go to ExistsAll — without this
  /// deleted overload, {"x", "y"} would silently select the two-pointer
  /// std::string iterator constructor (undefined behaviour).
  static FormulaPtr Exists(std::initializer_list<const char*> vars,
                           FormulaPtr inner) = delete;
  /// Convenience: ∃ over several variables.
  static FormulaPtr ExistsAll(const std::vector<std::string>& vars,
                              FormulaPtr inner);

  Kind kind() const { return kind_; }
  const Constraint& constraint() const { return *constraint_; }
  const StringAtom& string_atom() const { return *string_atom_; }
  const std::string& relation() const { return relation_; }
  const std::vector<std::string>& vars() const { return vars_; }
  const std::string& bound_var() const { return bound_var_; }
  const FormulaPtr& lhs() const { return lhs_; }
  const FormulaPtr& rhs() const { return rhs_; }

  /// Free variables of the formula.
  std::set<std::string> FreeVariables() const;

  /// Prefix rendering, e.g. "EXISTS t. (Hurricane(t, x, y) AND t >= 4)".
  std::string ToString() const;

 private:
  Formula() = default;

  Kind kind_ = Kind::kAtom;
  std::shared_ptr<const Constraint> constraint_;   // kAtom
  std::shared_ptr<const StringAtom> string_atom_;  // kStrAtom
  std::string relation_;                           // kRelation
  std::vector<std::string> vars_;                  // kRelation
  std::string bound_var_;                          // kExists
  FormulaPtr lhs_;                                 // kAnd/kOr/kNot/kExists
  FormulaPtr rhs_;                                 // kAnd/kOr
};

/// Translates a CQC formula into a CQA plan over `db`. The output schema
/// has one attribute per free variable: variables bound to relational
/// attributes keep that kind/domain (conflicts are errors); all others
/// become rational constraint attributes.
Result<std::unique_ptr<cqa::PlanNode>> Compile(const Formula& formula,
                                               const Database& db);

/// Compile, then cqa::Optimize and cqa::Execute.
Result<Relation> Evaluate(const Formula& formula, const Database& db);

}  // namespace ccdb::cqc

#endif  // CCDB_CORE_CALCULUS_H_
