#include "core/operators.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "constraint/fourier_motzkin.h"
#include "obs/governance.h"
#include "obs/trace.h"

// Governance check-points: every per-tuple loop below polls
// obs::CheckGovernance() (deadline / cancellation / hard budgets unwind
// with a typed status; any constraint math the current iteration computed
// past the trip is discarded with the loop), and breaks out early under
// budget truncation so a partial result is a sound prefix subset.
//
// Filter and refine: Select and NaturalJoin compare the exact tuple boxes
// cached on each input version (Relation::Boxes) over the constraint
// attributes they test, before any Fourier–Motzkin work, and skip a tuple
// or pair whose boxes are disjoint on some attribute — no point can
// satisfy both stores there. The rest are refined by exact satisfiability
// as before. Touching closed bounds overlap. An operator that tests no
// constraint attribute never builds boxes.

namespace ccdb::cqa {

Status ValidatePredicate(const Schema& schema, const Predicate& pred) {
  for (const StringAtom& atom : pred.strings) {
    const Attribute* attr = schema.Find(atom.attribute);
    if (attr == nullptr) {
      return Status::NotFound("selection on unknown attribute '" +
                              atom.attribute + "'");
    }
    if (attr->domain != AttributeDomain::kString ||
        attr->kind != AttributeKind::kRelational) {
      return Status::InvalidArgument("string atom on non-string attribute '" +
                                     atom.attribute + "'");
    }
    if (atom.kind == StringAtom::Kind::kAttrEqualsAttr) {
      const Attribute* attr2 = schema.Find(atom.attribute2);
      if (attr2 == nullptr || attr2->domain != AttributeDomain::kString ||
          attr2->kind != AttributeKind::kRelational) {
        return Status::InvalidArgument(
            "string atom on non-string attribute '" + atom.attribute2 + "'");
      }
    }
  }
  for (const Constraint& c : pred.linear) {
    for (const std::string& var : c.Variables()) {
      const Attribute* attr = schema.Find(var);
      if (attr == nullptr) {
        return Status::NotFound("selection on unknown attribute '" + var +
                                "'");
      }
      if (attr->domain != AttributeDomain::kRational) {
        return Status::InvalidArgument(
            "arithmetic constraint on string attribute '" + var + "'");
      }
    }
  }
  return Status::OK();
}

namespace {

/// Narrow evaluation of one string atom against a tuple.
bool StringAtomHolds(const StringAtom& atom, const Tuple& tuple) {
  const Value& lhs = tuple.GetValue(atom.attribute);
  bool equal;
  if (atom.kind == StringAtom::Kind::kAttrEqualsLiteral) {
    equal = lhs.EqualsForQuery(Value::String(atom.literal));
  } else {
    equal = lhs.EqualsForQuery(tuple.GetValue(atom.attribute2));
  }
  if (atom.negated) {
    // Narrow semantics for != as well: null is not unequal to anything —
    // it simply fails the atom (SQL three-valued logic collapsed to false).
    if (lhs.IsNull()) return false;
    if (atom.kind == StringAtom::Kind::kAttrEqualsAttr &&
        tuple.GetValue(atom.attribute2).IsNull()) {
      return false;
    }
    return !equal;
  }
  return equal;
}

}  // namespace

Result<Relation> Select(const Relation& input, const Predicate& pred) {
  CCDB_RETURN_IF_ERROR(ValidatePredicate(input.schema(), pred));
  // Filter box: the predicate's single-variable atoms over constraint
  // attributes, read without FM.
  Conjunction filter_atoms;
  std::set<std::string> filtered;
  for (const Constraint& c : pred.linear) {
    if (c.expr().terms().size() != 1) continue;
    const std::string& var = c.expr().terms().begin()->first;
    if (input.schema().Find(var)->kind != AttributeKind::kConstraint) continue;
    filter_atoms.Add(c);
    filtered.insert(var);
  }
  const fm::Box filter = fm::SingleVariableBounds(filter_atoms, filtered);
  // The relational attributes each atom mentions, grounded per tuple with
  // the tuple's values; an atom over constraint attributes alone joins the
  // store as it is.
  std::vector<std::vector<const std::string*>> grounding(pred.linear.size());
  for (size_t i = 0; i < pred.linear.size(); ++i) {
    for (const auto& [var, coeff] : pred.linear[i].expr().terms()) {
      if (input.schema().Find(var)->kind == AttributeKind::kRelational) {
        grounding[i].push_back(&var);
      }
    }
  }
  std::shared_ptr<const TupleBoxes> boxes;
  std::vector<std::pair<size_t, const fm::Interval*>> tests;  // column, bound
  if (!filtered.empty()) {
    CCDB_ASSIGN_OR_RETURN(boxes, input.Boxes());
    for (const auto& [var, interval] : filter) {
      tests.emplace_back(boxes->Column(var), &interval);
    }
  }
  Relation out(input.schema());
  for (size_t row = 0; row < input.size(); ++row) {
    const Tuple& tuple = input.tuples()[row];
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    if (obs::GovernanceTruncating()) break;
    bool keep = true;
    for (const StringAtom& atom : pred.strings) {
      if (!StringAtomHolds(atom, tuple)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    if (!std::all_of(tests.begin(), tests.end(), [&](const auto& test) {
          return boxes->At(row, test.first).Overlaps(*test.second);
        })) {
      obs::NoteBoxPrune();
      continue;
    }

    Conjunction store = tuple.constraints();
    obs::NoteConjunction();
    for (size_t i = 0; i < pred.linear.size(); ++i) {
      // Substitute values of relational rational attributes (narrow: a
      // mentioned-but-null attribute fails the tuple).
      Constraint grounded = pred.linear[i];
      for (const std::string* var : grounding[i]) {
        const Value& value = tuple.GetValue(*var);
        if (value.IsNull()) {
          keep = false;
          break;
        }
        grounded = grounded.Substitute(
            *var, LinearExpr::Constant(value.AsNumber()));
      }
      if (!keep) break;
      store.Add(std::move(grounded));
      if (store.IsKnownFalse()) {
        keep = false;
        break;
      }
    }
    if (!keep || !fm::IsSatisfiable(store)) continue;
    CCDB_RETURN_IF_ERROR(out.Insert(Tuple(tuple.values(), std::move(store))));
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& names) {
  CCDB_ASSIGN_OR_RETURN(Schema schema, input.schema().Project(names));
  std::set<std::string> kept_constraint_attrs;
  std::set<std::string> kept(names.begin(), names.end());
  for (const Attribute& attr : schema.attributes()) {
    if (attr.kind == AttributeKind::kConstraint) {
      kept_constraint_attrs.insert(attr.name);
    }
  }
  Relation out(schema);
  for (const Tuple& tuple : input.tuples()) {
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    if (obs::GovernanceTruncating()) break;
    Tuple projected;
    for (const auto& [name, value] : tuple.values()) {
      if (kept.count(name)) projected.SetValue(name, value);
    }
    Conjunction store = fm::Project(tuple.constraints(),
                                    kept_constraint_attrs);
    obs::NoteConjunction();
    if (store.IsKnownFalse()) continue;  // tuple was unsatisfiable
    projected.SetConstraints(std::move(store));
    CCDB_RETURN_IF_ERROR(out.Insert(std::move(projected)));
  }
  out.Deduplicate();
  return out;
}

Result<Relation> NaturalJoin(const Relation& lhs, const Relation& rhs) {
  CCDB_ASSIGN_OR_RETURN(Schema schema,
                        lhs.schema().NaturalJoin(rhs.schema()));
  // Shared relational attributes must match with non-null values; shared
  // constraint attributes are tested on the inputs' boxes, one (lhs
  // column, rhs column) pair per attribute.
  std::vector<std::string> shared_relational;
  std::vector<std::string> shared_constraint;
  for (const Attribute& attr : lhs.schema().attributes()) {
    if (!rhs.schema().Has(attr.name)) continue;
    (attr.kind == AttributeKind::kRelational ? shared_relational
                                             : shared_constraint)
        .push_back(attr.name);
  }
  std::shared_ptr<const TupleBoxes> lhs_boxes;
  std::shared_ptr<const TupleBoxes> rhs_boxes;
  std::vector<std::pair<size_t, size_t>> columns;
  if (!shared_constraint.empty() && !lhs.empty() && !rhs.empty()) {
    CCDB_ASSIGN_OR_RETURN(lhs_boxes, lhs.Boxes());
    CCDB_ASSIGN_OR_RETURN(rhs_boxes, rhs.Boxes());
    for (const std::string& attr : shared_constraint) {
      columns.emplace_back(lhs_boxes->Column(attr), rhs_boxes->Column(attr));
    }
  }
  Relation out(schema);
  for (size_t l = 0; l < lhs.size(); ++l) {
    const Tuple& left = lhs.tuples()[l];
    if (obs::GovernanceTruncating()) break;
    for (size_t r = 0; r < rhs.size(); ++r) {
      const Tuple& right = rhs.tuples()[r];
      CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
      if (obs::GovernanceTruncating()) break;
      bool match = true;
      for (const std::string& attr : shared_relational) {
        if (!left.GetValue(attr).EqualsForQuery(right.GetValue(attr))) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      if (!std::all_of(columns.begin(), columns.end(), [&](const auto& c) {
            return lhs_boxes->At(l, c.first).Overlaps(
                rhs_boxes->At(r, c.second));
          })) {
        obs::NoteBoxPrune();
        continue;
      }
      Conjunction store =
          Conjunction::And(left.constraints(), right.constraints());
      obs::NoteConjunction();
      if (store.IsKnownFalse() || !fm::IsSatisfiable(store)) continue;
      Tuple joined;
      for (const auto& [name, value] : left.values()) {
        joined.SetValue(name, value);
      }
      for (const auto& [name, value] : right.values()) {
        joined.SetValue(name, value);
      }
      joined.SetConstraints(std::move(store));
      CCDB_RETURN_IF_ERROR(out.Insert(std::move(joined)));
    }
  }
  return out;
}

Result<Relation> Union(const Relation& lhs, const Relation& rhs) {
  if (lhs.schema() != rhs.schema()) {
    return Status::InvalidArgument("union requires identical schemas: " +
                                   lhs.schema().ToString() + " vs " +
                                   rhs.schema().ToString());
  }
  Relation out(lhs.schema());
  CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
  CCDB_RETURN_IF_ERROR(out.InsertAll(lhs));
  CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
  CCDB_RETURN_IF_ERROR(out.InsertAll(rhs));
  out.Deduplicate();
  return out;
}

Result<Relation> Rename(const Relation& input, const std::string& from,
                        const std::string& to) {
  CCDB_ASSIGN_OR_RETURN(Schema schema, input.schema().Rename(from, to));
  const bool is_relational =
      input.schema().Find(from)->kind == AttributeKind::kRelational;
  Relation out(schema);
  for (const Tuple& tuple : input.tuples()) {
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    if (obs::GovernanceTruncating()) break;
    Tuple renamed = tuple;
    if (is_relational) {
      Value value = renamed.GetValue(from);
      renamed.SetValue(from, Value::Null());
      renamed.SetValue(to, std::move(value));
    } else {
      renamed.SetConstraints(tuple.constraints().RenameVariable(from, to));
    }
    CCDB_RETURN_IF_ERROR(out.Insert(std::move(renamed)));
  }
  return out;
}

Result<Relation> Difference(const Relation& lhs, const Relation& rhs) {
  if (lhs.schema() != rhs.schema()) {
    return Status::InvalidArgument("difference requires identical schemas: " +
                                   lhs.schema().ToString() + " vs " +
                                   rhs.schema().ToString());
  }
  std::vector<std::string> relational_attrs;
  for (const Attribute& attr : lhs.schema().attributes()) {
    if (attr.kind == AttributeKind::kRelational) {
      relational_attrs.push_back(attr.name);
    }
  }
  Relation out(lhs.schema());
  for (const Tuple& left : lhs.tuples()) {
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    if (obs::GovernanceTruncating()) break;
    // Pieces of `left`'s constraint store not yet covered by rhs tuples.
    std::vector<Conjunction> pieces{left.constraints()};
    for (const Tuple& right : rhs.tuples()) {
      CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
      // Only rhs tuples whose relational part matches can subtract.
      bool matches = true;
      for (const std::string& attr : relational_attrs) {
        if (!left.GetValue(attr).EqualsForQuery(right.GetValue(attr))) {
          matches = false;
          break;
        }
      }
      if (!matches) continue;
      // Subtract: piece ∧ ¬(c1 ∧ ... ∧ cn), as the disjoint expansion
      //   (piece ∧ ¬c1) ∨ (piece ∧ c1 ∧ ¬c2) ∨ ...
      std::vector<Conjunction> next;
      for (const Conjunction& piece : pieces) {
        Conjunction accumulated = piece;  // piece ∧ c1 ∧ ... ∧ c_{i-1}
        for (const Constraint& c : right.constraints().constraints()) {
          for (const Constraint& negated : c.Negate()) {
            Conjunction candidate = accumulated;
            candidate.Add(negated);
            obs::NoteConjunction();
            if (!candidate.IsKnownFalse() && fm::IsSatisfiable(candidate)) {
              next.push_back(std::move(candidate));
            }
          }
          accumulated.Add(c);
          if (accumulated.IsKnownFalse()) break;
        }
        // An empty rhs store is `true`: it swallows the piece entirely
        // (no disjuncts were produced, and the loop above adds none).
      }
      pieces = std::move(next);
      if (pieces.empty()) break;
    }
    for (Conjunction& piece : pieces) {
      Tuple survivor;
      for (const auto& [name, value] : left.values()) {
        survivor.SetValue(name, value);
      }
      survivor.SetConstraints(fm::RemoveRedundant(piece));
      CCDB_RETURN_IF_ERROR(out.Insert(std::move(survivor)));
    }
  }
  out.Deduplicate();
  return out;
}

}  // namespace ccdb::cqa
