#ifndef CCDB_DATA_RELATION_H_
#define CCDB_DATA_RELATION_H_

/// \file relation.h
/// Heterogeneous constraint relations.
///
/// A constraint relation (Definition 2 of the paper) is a finite set of
/// constraint tuples over the same attributes; its formula is the DNF
/// disjunction of the tuples' conjunctions, and its semantics the possibly
/// infinite set of points satisfying that formula. CCDB relations carry a
/// heterogeneous `Schema` (§3) so tuples mix relational values with
/// constraint stores.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "constraint/fourier_motzkin.h"
#include "data/schema.h"
#include "data/tuple.h"
#include "util/status.h"

namespace ccdb {

/// The exact per-attribute boxes of one relation version's tuples — the
/// intervals §5 of the paper keys its R*-trees on. Row `i` is
/// `fm::BoundingBox` of tuple `i`'s store over the schema's constraint
/// attributes, one column per attribute (in name order), stored flat.
class TupleBoxes {
 public:
  /// The column of `attribute`, which must be a constraint attribute of
  /// the relation's schema.
  size_t Column(const std::string& attribute) const;

  /// Tuple `row`'s interval on `column`.
  const fm::Interval& At(size_t row, size_t column) const {
    return cells_[row * columns_.size() + column];
  }

 private:
  friend class Relation;

  std::vector<std::string> columns_;  ///< the constraint attributes
  std::vector<fm::Interval> cells_;  ///< row-major, columns_.size() per row
};

/// A finite set of heterogeneous tuples under one schema.
///
/// Every relation carries a *content stamp*, minted from a process-wide
/// counter at construction and by every member that changes the schema or
/// the tuples. Copies keep the stamp; a moved-from relation gets a fresh
/// one. So two relations with equal stamps hold equal content, whichever
/// catalog, snapshot or copy they sit in — the identity incremental
/// commits key on (`SaveDatabase` in `storage/catalog.h`), and the key of
/// the version's cached tuple boxes (`Boxes`).
class Relation {
 public:
  /// The empty zero-ary relation.
  Relation() : stamp_(MintStamp()) {}

  explicit Relation(Schema schema)
      : schema_(std::move(schema)), stamp_(MintStamp()) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }

  /// The content stamp (see the class comment).
  uint64_t stamp() const { return stamp_; }

  /// Validates and appends a tuple:
  ///  - relational values only for relational attributes, matching domains;
  ///  - constraint-store variables only over constraint attributes.
  /// A tuple whose constraint store is *syntactically* false is dropped
  /// (it denotes the empty point set); deep unsatisfiability is left to
  /// `Normalize`. Duplicate representations are kept (set semantics are
  /// restored by `Deduplicate`).
  Status Insert(Tuple tuple);

  /// Appends all tuples of `other` (schemas must match).
  Status InsertAll(const Relation& other);

  const std::vector<Tuple>& tuples() const { return tuples_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Removes tuples with identical representation (set semantics).
  void Deduplicate();

  /// Semantic cleanup: drops unsatisfiable tuples (Fourier–Motzkin check),
  /// minimizes each store (`fm::RemoveRedundant`), then deduplicates.
  /// The result is equivalent (same point-set semantics).
  void Normalize();

  /// DNF minimization across tuples: removes any tuple whose semantics are
  /// contained in another single tuple's (equal relational part and an
  /// entailed constraint store). Quadratic with an entailment check per
  /// pair — use after `Difference`/`Union` when compact output matters.
  /// The result is equivalent (same point-set semantics).
  void RemoveSubsumed();

  /// The exact boxes of this version's tuples (see `TupleBoxes`), built on
  /// the first call and shared by every later call on this relation or a
  /// copy with the same stamp; a member that mints a new stamp detaches
  /// them. The build runs Fourier–Motzkin only for stores with a
  /// multi-variable member, charges the calling query's governance, and
  /// publishes only a complete vector: a governance trip returns its typed
  /// status and leaves nothing cached. Concurrent first callers may each
  /// build; one vector is kept. Safe to call from many threads at once.
  Result<std::shared_ptr<const TupleBoxes>> Boxes() const;

  /// True when some tuple's semantics contain `point` (see
  /// Tuple::MatchesPoint). This is the reference semantics used by tests.
  bool ContainsPoint(const PointRow& point) const;

  /// Multi-line rendering: schema, then one tuple per line.
  std::string ToString() const;

 private:
  /// Where one version's boxes are published: shared by the relations
  /// with that stamp, and replaced whenever the stamp changes (null until
  /// the first stamp-minting member).
  struct BoxSlot {
    std::atomic<const TupleBoxes*> boxes{nullptr};
    ~BoxSlot() { delete boxes.load(std::memory_order_acquire); }
  };

  static uint64_t MintStamp();

  /// Mints a new stamp with a fresh, empty box slot.
  void Restamp();

  Result<std::unique_ptr<TupleBoxes>> BuildBoxes() const;

  Schema schema_;
  std::vector<Tuple> tuples_;
  uint64_t stamp_;
  std::shared_ptr<BoxSlot> box_slot_;
};

}  // namespace ccdb

#endif  // CCDB_DATA_RELATION_H_
