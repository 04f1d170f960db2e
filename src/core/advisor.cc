#include "core/advisor.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <set>

#include "constraint/independence.h"
#include "storage/serde.h"

namespace ccdb::cqa {

const char* IndexChoiceName(IndexChoice choice) {
  switch (choice) {
    case IndexChoice::kJoint:
      return "joint(x,y)";
    case IndexChoice::kSeparate:
      return "separate(x)+separate(y)";
    case IndexChoice::kXOnly:
      return "x-only";
    case IndexChoice::kYOnly:
      return "y-only";
  }
  return "?";
}

std::string AdvisorReport::ToString() const {
  std::string out = "recommendation: ";
  out += IndexChoiceName(recommendation);
  out += "\nworkload: " + std::to_string(queries_both) + " conjunctive, " +
         std::to_string(queries_x_only) + " x-only, " +
         std::to_string(queries_y_only) + " y-only";
  out += "\nattributes independent: ";
  out += attributes_independent ? "yes" : "no";
  out += "\ncosts (page accesses over the replayed workload):";
  for (const Candidate& c : candidates) {
    out += "\n  " + std::string(IndexChoiceName(c.choice)) + ": " +
           std::to_string(c.total_accesses);
  }
  return out;
}

namespace {

/// Where a relation's tuples sit in the scratch heap: `key_pages[i]` is
/// the page of index key `i`'s tuple, and `outlier_pages` the pages of
/// the tuples with no key.
struct HeapPages {
  std::vector<PageId> key_pages;
  std::set<PageId> outlier_pages;
};

/// Replays queries against the joint index over `domain` (given) or the
/// two separate ones, on an uncached in-memory disk.
class IndexReplayer {
 public:
  IndexReplayer(const std::vector<Rect>& keys, const HeapPages& heap,
                const std::optional<Rect>& joint_domain)
      : pool_(&disk_, 0), heap_(heap) {
    if (joint_domain) {
      index_ = std::make_unique<JointIndex>(&pool_, *joint_domain);
    } else {
      index_ = std::make_unique<SeparateIndex>(&pool_);
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      Status s = index_->Insert(keys[i], i);
      assert(s.ok());
      IgnoreError(s);  // in-memory replay disk: inserts cannot fail
    }
  }

  /// Page accesses for `query`: index page reads plus one fetch per
  /// distinct heap page holding a candidate or an outlier.
  Result<uint64_t> Cost(const BoxQuery& query) {
    disk_.ResetStats();
    CCDB_ASSIGN_OR_RETURN(auto hits, index_->Search(query));
    std::set<PageId> fetched = heap_.outlier_pages;
    for (uint64_t id : hits) fetched.insert(heap_.key_pages[id]);
    return disk_.stats().reads + fetched.size();
  }

 private:
  PageManager disk_;
  BufferPool pool_;
  std::unique_ptr<AttributeIndex> index_;
  const HeapPages& heap_;
};

}  // namespace

bool AreAttributesIndependent(const Relation& rel, const std::string& x,
                              const std::string& y, size_t sample_tuples) {
  const Attribute* ax = rel.schema().Find(x);
  const Attribute* ay = rel.schema().Find(y);
  if (ax == nullptr || ay == nullptr) return false;
  // A relational attribute holds one concrete value per tuple: it is
  // independent of everything (the paper's §3.2 observation).
  if (ax->kind == AttributeKind::kRelational ||
      ay->kind == AttributeKind::kRelational) {
    return true;
  }
  size_t checked = 0;
  for (const Tuple& t : rel.tuples()) {
    if (checked++ >= sample_tuples) break;
    if (!fm::AreIndependent(t.constraints(), x, y)) return false;
  }
  return true;
}

Result<AdvisorReport> AdviseIndexing(const Relation& rel,
                                     const std::vector<BoxQuery>& workload,
                                     const std::string& xattr,
                                     const std::string& yattr,
                                     const Rect& domain,
                                     size_t sample_tuples) {
  const Attribute* x = rel.schema().Find(xattr);
  const Attribute* y = rel.schema().Find(yattr);
  if (x == nullptr || y == nullptr ||
      x->domain != AttributeDomain::kRational ||
      y->domain != AttributeDomain::kRational) {
    return Status::InvalidArgument(
        "advisor needs rational attributes '" + xattr + "' and '" + yattr +
        "'");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("advisor needs a non-empty workload");
  }

  AdvisorReport report;
  for (const BoxQuery& q : workload) {
    if (q.x && q.y) {
      ++report.queries_both;
    } else if (q.x) {
      ++report.queries_x_only;
    } else if (q.y) {
      ++report.queries_y_only;
    } else {
      return Status::InvalidArgument("workload query constrains nothing");
    }
  }

  // Every tuple goes to a scratch heap file, whose size is the full-scan
  // cost unit and whose pages are what a candidate fetch reads. Index
  // keys for every tuple; null relational values become outliers that
  // every configuration must re-check.
  PageManager heap_disk;
  BufferPool heap_pool(&heap_disk, 0);
  HeapFile heap(&heap_pool);
  std::vector<Rect> keys;
  HeapPages pages;
  for (const Tuple& t : rel.tuples()) {
    CCDB_ASSIGN_OR_RETURN(RecordId rid, heap.Append(SerializeTuple(t)));
    CCDB_ASSIGN_OR_RETURN(auto key, TupleIndexKey(t, *x, *y, domain));
    if (key) {
      keys.push_back(*key);
      pages.key_pages.push_back(rid.page);
    } else {
      pages.outlier_pages.insert(rid.page);
    }
  }
  const uint64_t heap_pages = heap.num_pages();

  // §3.2 independence probe over a sample of tuples.
  report.attributes_independent =
      AreAttributesIndependent(rel, xattr, yattr, sample_tuples);

  // Replay the workload against each configuration. A single-axis index
  // is the separate configuration's tree on that axis: on an uncached
  // disk a one-axis query reads only that tree's pages. A query leaving
  // the axis free scans the heap.
  IndexReplayer joint(keys, pages, domain);
  IndexReplayer separate(keys, pages, std::nullopt);
  auto cost = [&](IndexChoice choice, const BoxQuery& q) -> Result<uint64_t> {
    switch (choice) {
      case IndexChoice::kJoint:
        return joint.Cost(q);
      case IndexChoice::kSeparate:
        return separate.Cost(q);
      case IndexChoice::kXOnly:
        if (!q.x) return heap_pages;
        return separate.Cost(BoxQuery{q.x, std::nullopt});
      case IndexChoice::kYOnly:
        if (!q.y) return heap_pages;
        return separate.Cost(BoxQuery{std::nullopt, q.y});
    }
    return Status::Internal("unknown index choice");
  };
  for (IndexChoice choice : {IndexChoice::kJoint, IndexChoice::kSeparate,
                             IndexChoice::kXOnly, IndexChoice::kYOnly}) {
    AdvisorReport::Candidate candidate;
    candidate.choice = choice;
    for (const BoxQuery& q : workload) {
      CCDB_ASSIGN_OR_RETURN(uint64_t accesses, cost(choice, q));
      candidate.total_accesses += accesses;
    }
    report.candidates.push_back(candidate);
  }
  // Ties break toward lower maintenance cost: one small 1-D tree beats one
  // 2-D tree beats two trees.
  auto maintenance_rank = [](IndexChoice c) {
    switch (c) {
      case IndexChoice::kXOnly:
      case IndexChoice::kYOnly:
        return 0;
      case IndexChoice::kJoint:
        return 1;
      case IndexChoice::kSeparate:
        return 2;
    }
    return 3;
  };
  std::sort(report.candidates.begin(), report.candidates.end(),
            [&](const auto& a, const auto& b) {
              if (a.total_accesses != b.total_accesses) {
                return a.total_accesses < b.total_accesses;
              }
              return maintenance_rank(a.choice) < maintenance_rank(b.choice);
            });
  report.recommendation = report.candidates.front().choice;
  return report;
}

}  // namespace ccdb::cqa
