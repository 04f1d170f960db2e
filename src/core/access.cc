#include "core/access.h"

#include <algorithm>

#include "constraint/fourier_motzkin.h"
#include "storage/serde.h"

namespace ccdb::cqa {

namespace {

/// Index key interval of one tuple along `attr`; nullopt marks an outlier
/// (null relational value). `lo_default`/`hi_default` bound unbounded
/// constraint intervals.
Result<std::optional<std::pair<double, double>>> TupleInterval(
    const Tuple& tuple, const Attribute& attr, double lo_default,
    double hi_default) {
  if (attr.kind == AttributeKind::kRelational) {
    const Value& value = tuple.GetValue(attr.name);
    if (value.IsNull()) return std::optional<std::pair<double, double>>();
    double lo = Rect::RoundDown(value.AsNumber());
    double hi = Rect::RoundUp(value.AsNumber());
    return std::optional<std::pair<double, double>>({lo, hi});
  }
  fm::Interval interval = fm::VariableInterval(tuple.constraints(), attr.name);
  if (interval.empty) {
    // Unsatisfiable tuple: empty key at the domain's corner; it will never
    // refine to true, so any placement is sound — keep it out of results
    // via refinement.
    return std::optional<std::pair<double, double>>({lo_default, lo_default});
  }
  double lo = interval.lower ? Rect::RoundDown(interval.lower->value)
                             : lo_default;
  double hi = interval.upper ? Rect::RoundUp(interval.upper->value)
                             : hi_default;
  return std::optional<std::pair<double, double>>({lo, hi});
}

}  // namespace

Result<std::optional<Rect>> TupleIndexKey(const Tuple& tuple,
                                          const Attribute& x,
                                          const Attribute& y,
                                          const Rect& domain) {
  CCDB_ASSIGN_OR_RETURN(auto xi,
                        TupleInterval(tuple, x, domain.lo[0], domain.hi[0]));
  CCDB_ASSIGN_OR_RETURN(auto yi,
                        TupleInterval(tuple, y, domain.lo[1], domain.hi[1]));
  if (!xi || !yi) return std::optional<Rect>();
  return std::optional<Rect>(
      Rect::Make2D(xi->first, xi->second, yi->first, yi->second));
}

Result<std::unique_ptr<StoredRelation>> StoredRelation::Create(
    BufferPool* pool, const Relation& rel, AccessIndexKind kind,
    const std::string& xattr, const std::string& yattr, const Rect& domain) {
  const Attribute* x = rel.schema().Find(xattr);
  const Attribute* y = rel.schema().Find(yattr);
  if (x == nullptr || y == nullptr ||
      x->domain != AttributeDomain::kRational ||
      y->domain != AttributeDomain::kRational) {
    return Status::InvalidArgument(
        "StoredRelation needs rational attributes '" + xattr + "' and '" +
        yattr + "' in " + rel.schema().ToString());
  }
  auto stored = std::unique_ptr<StoredRelation>(new StoredRelation());
  stored->pool_ = pool;
  stored->schema_ = rel.schema();
  stored->xattr_ = xattr;
  stored->yattr_ = yattr;
  stored->kind_ = kind;
  stored->domain_ = domain;
  stored->heap_ = std::make_unique<HeapFile>(pool);
  switch (kind) {
    case AccessIndexKind::kNone:
      break;
    case AccessIndexKind::kJoint:
      stored->index_ = std::make_unique<JointIndex>(pool, domain);
      break;
    case AccessIndexKind::kSeparate:
      stored->index_ = std::make_unique<SeparateIndex>(pool);
      break;
  }

  for (const Tuple& tuple : rel.tuples()) {
    CCDB_ASSIGN_OR_RETURN(RecordId rid,
                          stored->heap_->Append(SerializeTuple(tuple)));
    stored->all_records_.push_back(rid);
    if (stored->index_ == nullptr) continue;
    CCDB_ASSIGN_OR_RETURN(auto key, TupleIndexKey(tuple, *x, *y, domain));
    if (!key) {
      stored->outliers_.push_back(rid);
      continue;
    }
    CCDB_RETURN_IF_ERROR(stored->index_->Insert(*key, rid.Pack()));
  }
  return stored;
}

Result<Predicate> StoredRelation::QueryPredicate(
    const BoxQuery& query) const {
  Predicate pred;
  auto add_range = [&](const std::string& attr,
                       const std::pair<double, double>& range) {
    LinearExpr var = LinearExpr::Variable(attr);
    CCDB_ASSIGN_OR_RETURN(Rational lo, Rational::FromDouble(range.first));
    CCDB_ASSIGN_OR_RETURN(Rational hi, Rational::FromDouble(range.second));
    pred.linear.push_back(Constraint::Ge(var, LinearExpr::Constant(lo)));
    pred.linear.push_back(Constraint::Le(var, LinearExpr::Constant(hi)));
    return Status::OK();
  };
  if (query.x) CCDB_RETURN_IF_ERROR(add_range(xattr_, *query.x));
  if (query.y) CCDB_RETURN_IF_ERROR(add_range(yattr_, *query.y));
  if (pred.empty()) {
    return Status::InvalidArgument("BoxQuery constrains no attribute");
  }
  return pred;
}

Result<Relation> StoredRelation::RefineRecords(
    const std::vector<RecordId>& ids, const Predicate& pred) {
  Relation candidates(schema_);
  for (RecordId rid : ids) {
    CCDB_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, heap_->Read(rid));
    CCDB_ASSIGN_OR_RETURN(Tuple tuple, DeserializeTuple(bytes));
    CCDB_RETURN_IF_ERROR(candidates.Insert(std::move(tuple)));
  }
  return Select(candidates, pred);
}

Result<Relation> StoredRelation::BoxSelect(const BoxQuery& query) {
  CCDB_ASSIGN_OR_RETURN(Predicate pred, QueryPredicate(query));
  if (index_ == nullptr) {
    return RefineRecords(all_records_, pred);
  }
  CCDB_ASSIGN_OR_RETURN(std::vector<uint64_t> packed, index_->Search(query));
  std::vector<RecordId> ids;
  ids.reserve(packed.size() + outliers_.size());
  for (uint64_t p : packed) ids.push_back(RecordId::Unpack(p));
  ids.insert(ids.end(), outliers_.begin(), outliers_.end());
  std::sort(ids.begin(), ids.end());
  return RefineRecords(ids, pred);
}

Result<Relation> StoredRelation::ScanSelect(const BoxQuery& query) {
  CCDB_ASSIGN_OR_RETURN(Predicate pred, QueryPredicate(query));
  return RefineRecords(all_records_, pred);
}

Result<Relation> StoredRelation::Materialize() {
  Relation out(schema_);
  // A record that fails to decode or insert must fail the whole
  // materialization: silently skipping it would return a truncated
  // relation as if it were the full answer (unsound under closure).
  Status inner = Status::OK();
  CCDB_RETURN_IF_ERROR(
      heap_->Scan([&](RecordId, const std::vector<uint8_t>& bytes) {
        auto tuple = DeserializeTuple(bytes);
        if (!tuple.ok()) {
          inner = tuple.status();
          return false;
        }
        inner = out.Insert(std::move(tuple).value());
        return inner.ok();
      }));
  CCDB_RETURN_IF_ERROR(inner);
  return out;
}

}  // namespace ccdb::cqa
