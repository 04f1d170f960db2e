#ifndef CCDB_CORE_OPERATORS_H_
#define CCDB_CORE_OPERATORS_H_

/// \file operators.h
/// The Constraint Query Algebra (CQA) operators.
///
/// §2.4 of the paper defines CQA as the relational-algebra operator set —
/// project, select, natural-join, union, rename, difference — reinterpreted
/// over constraint relations, with cross-product and intersection as
/// special cases of natural-join. Each operator here is *closed* (§2.5):
/// the output is again a heterogeneous relation over rational linear
/// constraints, and its point-set semantics equal the corresponding
/// relational-algebra operation on the (possibly infinite) input point
/// sets. Tests verify this against `Relation::ContainsPoint` sampling.
///
/// Heterogeneous (C/R) semantics follow §3: selections and joins on
/// relational attributes are narrow (null matches nothing); constraint
/// attributes are broad (unconstrained means every value).

#include "core/predicate.h"
#include "data/relation.h"

namespace ccdb::cqa {

/// Checks that `pred` is well-typed against `schema`: every attribute it
/// mentions exists, string atoms compare relational string attributes,
/// and linear atoms mention only rational ones.
Status ValidatePredicate(const Schema& schema, const Predicate& pred);

/// ς_pred(R): tuples whose semantics intersect `pred`, with the linear
/// atoms conjoined into the surviving tuples' constraint stores.
Result<Relation> Select(const Relation& input, const Predicate& pred);

/// π_X(R): projection onto attributes `names` (in the given order).
/// Dropped constraint attributes are existentially eliminated
/// (Fourier–Motzkin); dropped relational attributes are removed.
Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& names);

/// R1 ⋈ R2: natural join. Shared relational attributes must hold equal
/// non-null values; shared constraint attributes conjoin their stores
/// (kept only when satisfiable).
Result<Relation> NaturalJoin(const Relation& lhs, const Relation& rhs);

/// R1 ∪ R2: union of same-schema relations (deduplicated).
Result<Relation> Union(const Relation& lhs, const Relation& rhs);

/// ρ_{B|A}(R): renames attribute `from` to `to` in schema and tuples.
Result<Relation> Rename(const Relation& input, const std::string& from,
                        const std::string& to);

/// R1 − R2: difference of same-schema relations. Each R1 tuple is split
/// against the negation of every matching R2 tuple's store (the DNF
/// complement construction); unsatisfiable pieces are dropped.
Result<Relation> Difference(const Relation& lhs, const Relation& rhs);

}  // namespace ccdb::cqa

#endif  // CCDB_CORE_OPERATORS_H_
