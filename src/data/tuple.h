#ifndef CCDB_DATA_TUPLE_H_
#define CCDB_DATA_TUPLE_H_

/// \file tuple.h
/// Heterogeneous tuples: relational values + a constraint store.
///
/// A CCDB tuple generalizes both the relational tuple and the paper's
/// constraint tuple (Definition 1): relational attributes hold concrete
/// `Value`s (missing = null, narrow semantics), and constraint attributes
/// are described collectively by a `Conjunction` of linear constraints
/// (unconstrained = all values, broad semantics). A traditional relational
/// tuple is the special case with an empty constraint store; a pure
/// constraint tuple is the special case with no relational values.

#include <map>
#include <string>

#include "constraint/conjunction.h"
#include "data/schema.h"
#include "data/value.h"

namespace ccdb {

/// A fully-instantiated point of a heterogeneous relation's semantics:
/// one concrete value per relational attribute and one rational per
/// constraint attribute. Used to sample/verify query semantics.
struct PointRow {
  std::map<std::string, Value> relational;
  Assignment constraint;
};

/// One heterogeneous tuple.
class Tuple {
 public:
  Tuple() = default;

  /// A tuple with these relational values (none null) and this store.
  Tuple(std::map<std::string, Value> values, Conjunction constraints)
      : values_(std::move(values)), constraints_(std::move(constraints)) {}

  /// Sets a relational attribute's value. Setting null erases the entry
  /// (absent and null are the same state).
  void SetValue(const std::string& attribute, Value value);

  /// The stored value, or null when absent.
  const Value& GetValue(const std::string& attribute) const;

  const std::map<std::string, Value>& values() const { return values_; }

  /// Adds an atomic constraint to the constraint store.
  void AddConstraint(Constraint constraint) {
    constraints_.Add(std::move(constraint));
  }

  const Conjunction& constraints() const { return constraints_; }
  Conjunction& mutable_constraints() { return constraints_; }
  void SetConstraints(Conjunction constraints) {
    constraints_ = std::move(constraints);
  }

  /// True when `point` is in this tuple's semantics under `schema`:
  /// every relational attribute's stored value is non-null and equals the
  /// point's value (narrow), and the point's constraint-attribute values
  /// satisfy the constraint store (broad).
  bool MatchesPoint(const Schema& schema, const PointRow& point) const;

  /// Representation identity (used to deduplicate relations).
  bool operator==(const Tuple& other) const {
    return values_ == other.values_ && constraints_ == other.constraints_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const {
    if (values_ != other.values_) return values_ < other.values_;
    return constraints_ < other.constraints_;
  }

  /// Renders as "(name = "Smith", t >= 4 AND t <= 9)".
  std::string ToString() const;

 private:
  std::map<std::string, Value> values_;  // relational attrs; absent = null
  Conjunction constraints_;              // over constraint attrs
};

}  // namespace ccdb

#endif  // CCDB_DATA_TUPLE_H_
