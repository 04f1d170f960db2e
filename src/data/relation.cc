#include "data/relation.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <set>
#include <utility>

#include "constraint/fourier_motzkin.h"
#include "obs/governance.h"
#include "obs/trace.h"

namespace ccdb {

size_t TupleBoxes::Column(const std::string& attribute) const {
  auto it = std::lower_bound(columns_.begin(), columns_.end(), attribute);
  assert(it != columns_.end() && *it == attribute);
  return static_cast<size_t>(it - columns_.begin());
}

uint64_t Relation::MintStamp() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Relation::Restamp() {
  stamp_ = MintStamp();
  // Copies, and pointers `Boxes()` returned, keep the old version's slot.
  box_slot_ = std::make_shared<BoxSlot>();
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      tuples_(std::move(other.tuples_)),
      stamp_(std::exchange(other.stamp_, MintStamp())),
      box_slot_(std::move(other.box_slot_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  schema_ = std::move(other.schema_);
  tuples_ = std::move(other.tuples_);
  stamp_ = std::exchange(other.stamp_, MintStamp());
  box_slot_ = std::move(other.box_slot_);
  return *this;
}

Status Relation::Insert(Tuple tuple) {
  for (const auto& [name, value] : tuple.values()) {
    const Attribute* attr = schema_.Find(name);
    if (attr == nullptr) {
      return Status::InvalidArgument("tuple value for unknown attribute '" +
                                     name + "'");
    }
    if (attr->kind != AttributeKind::kRelational) {
      return Status::InvalidArgument(
          "tuple value for constraint attribute '" + name +
          "'; use the constraint store");
    }
    if (!value.MatchesDomain(attr->domain)) {
      return Status::InvalidArgument("value " + value.ToString() +
                                     " does not match domain of '" + name +
                                     "'");
    }
  }
  for (const Constraint& c : tuple.constraints().constraints()) {
    for (const auto& [var, coeff] : c.expr().terms()) {
      const Attribute* attr = schema_.Find(var);
      if (attr == nullptr) {
        return Status::InvalidArgument("constraint on unknown attribute '" +
                                       var + "'");
      }
      if (attr->kind != AttributeKind::kConstraint) {
        return Status::InvalidArgument(
            "constraint on relational attribute '" + var +
            "'; relational attributes take values");
      }
    }
  }
  if (tuple.constraints().IsKnownFalse()) {
    return Status::OK();  // denotes the empty set; nothing to store
  }
  // Governance charge: every stored tuple counts against the query's
  // tuple budget (intermediate results included — quadratic joins are
  // exactly what the budget exists to bound).
  obs::GovernTuples(1);
  tuples_.push_back(std::move(tuple));
  Restamp();
  return Status::OK();
}

Status Relation::InsertAll(const Relation& other) {
  if (schema_ != other.schema_) {
    return Status::InvalidArgument("InsertAll: schema mismatch " +
                                   schema_.ToString() + " vs " +
                                   other.schema_.ToString());
  }
  for (const Tuple& t : other.tuples_) {
    CCDB_RETURN_IF_ERROR(Insert(t));
  }
  return Status::OK();
}

void Relation::Deduplicate() {
  std::set<Tuple> seen;
  std::vector<Tuple> unique;
  unique.reserve(tuples_.size());
  for (Tuple& t : tuples_) {
    if (seen.insert(t).second) unique.push_back(std::move(t));
  }
  tuples_ = std::move(unique);
  Restamp();
}

void Relation::Normalize() {
  std::vector<Tuple> kept;
  kept.reserve(tuples_.size());
  for (Tuple& t : tuples_) {
    if (!fm::IsSatisfiable(t.constraints())) continue;
    t.SetConstraints(fm::RemoveRedundant(t.constraints()));
    kept.push_back(std::move(t));
  }
  tuples_ = std::move(kept);
  Deduplicate();  // restamps
}

void Relation::RemoveSubsumed() {
  // t is subsumed by s when their relational parts are identical and every
  // constraint of s's store is entailed by t's store (s's region contains
  // t's region). Ties (mutual subsumption = equivalence) keep the earlier
  // tuple.
  std::vector<bool> dead(tuples_.size(), false);
  auto subsumes = [&](const Tuple& big, const Tuple& small) {
    if (big.values() != small.values()) return false;
    for (const Constraint& c : big.constraints().constraints()) {
      if (!fm::Entails(small.constraints(), c)) return false;
    }
    return true;
  };
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < tuples_.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (subsumes(tuples_[i], tuples_[j])) dead[j] = true;
    }
  }
  std::vector<Tuple> kept;
  kept.reserve(tuples_.size());
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(tuples_[i]));
  }
  tuples_ = std::move(kept);
  Restamp();
}

Result<std::shared_ptr<const TupleBoxes>> Relation::Boxes() const {
  if (box_slot_ == nullptr) {  // never restamped: nothing to share
    CCDB_ASSIGN_OR_RETURN(std::unique_ptr<TupleBoxes> built, BuildBoxes());
    return std::shared_ptr<const TupleBoxes>(std::move(built));
  }
  const TupleBoxes* published =
      box_slot_->boxes.load(std::memory_order_acquire);
  if (published == nullptr) {
    CCDB_ASSIGN_OR_RETURN(std::unique_ptr<TupleBoxes> built, BuildBoxes());
    // One compare-and-swap publishes; a reader that lost the race uses
    // the winner's vector and drops its own.
    if (box_slot_->boxes.compare_exchange_strong(
            published, built.get(), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      published = built.release();
    }
  }
  // Aliasing: the pointer keeps the slot, and so the vector, alive after
  // this relation is restamped or destroyed.
  return std::shared_ptr<const TupleBoxes>(box_slot_, published);
}

Result<std::unique_ptr<TupleBoxes>> Relation::BuildBoxes() const {
  std::set<std::string> attributes;
  for (const Attribute& attr : schema_.attributes()) {
    if (attr.kind == AttributeKind::kConstraint) attributes.insert(attr.name);
  }
  auto boxes = std::make_unique<TupleBoxes>();
  boxes->columns_.assign(attributes.begin(), attributes.end());
  boxes->cells_.reserve(tuples_.size() * attributes.size());
  for (const Tuple& tuple : tuples_) {
    // FM bails with wrong values once the query aborts; this check-point
    // turns the trip into its status before such a box is kept.
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    for (auto& [attribute, interval] :
         fm::BoundingBox(tuple.constraints(), attributes)) {
      boxes->cells_.push_back(std::move(interval));
    }
  }
  CCDB_RETURN_IF_ERROR(obs::CheckGovernance());  // a trip in the last box
  obs::NoteBoxesBuilt(tuples_.size());
  return boxes;
}

bool Relation::ContainsPoint(const PointRow& point) const {
  return std::any_of(tuples_.begin(), tuples_.end(), [&](const Tuple& t) {
    return t.MatchesPoint(schema_, point);
  });
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {";
  for (const Tuple& t : tuples_) {
    out += "\n  " + t.ToString();
  }
  out += tuples_.empty() ? "}" : "\n}";
  return out;
}

}  // namespace ccdb
