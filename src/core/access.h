#ifndef CCDB_CORE_ACCESS_H_
#define CCDB_CORE_ACCESS_H_

/// \file access.h
/// Stored relations: heap files + multi-attribute indexes + refinement.
///
/// This is the access layer of Figure 1 — the bridge between CQA and the
/// simulated disk. A `StoredRelation` persists a heterogeneous relation
/// into a slotted heap file and optionally maintains a *joint* (one 2-D
/// R*-tree) or *separate* (two 1-D R*-trees) index over a pair of rational
/// attributes (§5). Rectangular selections then run as filter + refine:
/// the index returns candidate record ids by conservative bounding box,
/// the records are fetched and the exact CQA `Select` predicate decides.
///
/// Per-tuple index keys follow the heterogeneous model:
///  - a constraint attribute contributes its exact interval
///    (`fm::VariableInterval`), conservatively rounded outward; unbounded
///    sides extend to the configured domain;
///  - a relational rational attribute contributes the point [v, v];
///  - a tuple with a *null* relational attribute is indexed nowhere — it
///    can never satisfy a range predicate on that attribute (narrow
///    semantics), and for queries that do not constrain that attribute it
///    is kept in an outlier list that every query re-checks exactly.

#include <memory>
#include <optional>
#include <vector>

#include "core/operators.h"
#include "index/strategy.h"
#include "storage/heap_file.h"

namespace ccdb::cqa {

/// Which index (if any) a StoredRelation maintains.
enum class AccessIndexKind {
  kNone,      ///< heap file only; every selection is a full scan
  kJoint,     ///< one 2-D R*-tree over both attributes
  kSeparate,  ///< two 1-D R*-trees, intersected for conjunctive queries
};

/// The index key of one tuple over attributes (x, y), following the
/// heterogeneous rules in the file comment. `nullopt` marks an outlier
/// (null relational value on either attribute). Unsatisfiable constraint
/// stores key at the domain corner (they refine to nothing anyway).
Result<std::optional<Rect>> TupleIndexKey(const Tuple& tuple,
                                          const Attribute& x,
                                          const Attribute& y,
                                          const Rect& domain);

/// A relation persisted to the simulated disk with optional indexing.
class StoredRelation {
 public:
  /// Writes `rel` into a fresh heap file under `pool` and builds the
  /// requested index over rational attributes (`xattr`, `yattr`).
  /// `domain` bounds substitute for unbounded constraint intervals and for
  /// the unqueried attribute of a joint-index search.
  static Result<std::unique_ptr<StoredRelation>> Create(
      BufferPool* pool, const Relation& rel, AccessIndexKind kind,
      const std::string& xattr = "x", const std::string& yattr = "y",
      const Rect& domain = Rect::Make2D(-1e12, 1e12, -1e12, 1e12));

  /// Rectangular selection via the configured access path (index filter +
  /// exact refinement; full scan when kNone). Result semantics are
  /// identical to `ScanSelect`.
  Result<Relation> BoxSelect(const BoxQuery& query);

  /// The same selection evaluated by scanning every record (the baseline
  /// access path).
  Result<Relation> ScanSelect(const BoxQuery& query);

  /// Reconstructs the full relation from the heap file.
  Result<Relation> Materialize();

  const Schema& schema() const { return schema_; }
  size_t size() const { return heap_->num_records(); }
  AccessIndexKind index_kind() const { return kind_; }

 private:
  StoredRelation() = default;

  /// Translates the box query into an exact CQA predicate over
  /// (xattr, yattr): the exact values of the doubles the index searches.
  Result<Predicate> QueryPredicate(const BoxQuery& query) const;

  /// Fetches + deserializes records and refines them with `pred`.
  Result<Relation> RefineRecords(const std::vector<RecordId>& ids,
                                 const Predicate& pred);

  BufferPool* pool_ = nullptr;
  Schema schema_;
  std::string xattr_;
  std::string yattr_;
  AccessIndexKind kind_ = AccessIndexKind::kNone;
  Rect domain_ = Rect::Make2D(0, 0, 0, 0);
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<AttributeIndex> index_;
  std::vector<RecordId> all_records_;
  std::vector<RecordId> outliers_;  ///< records excluded from the index
};

}  // namespace ccdb::cqa

#endif  // CCDB_CORE_ACCESS_H_
