#ifndef CCDB_CORE_ADVISOR_H_
#define CCDB_CORE_ADVISOR_H_

/// \file advisor.h
/// The index-grouping advisor.
///
/// §5.4 of the paper closes with an open problem: "Given a constraint
/// relation over attributes X = {x1, ..., xk}, determine a set of subsets
/// of X that should correspond to indices over X, with one index per
/// subset", noting that "the selectivity of various attributes and the
/// kinds of queries that are typical will need to be considered".
///
/// CCDB implements the workload-driven heuristic the paper sketches: given
/// a relation and a representative query workload, every candidate
/// configuration (joint 2-D; two separate 1-D; one 1-D on either
/// attribute) is built on a scratch disk and the workload is *replayed*,
/// counting actual page accesses — index pages touched plus the distinct
/// heap pages holding candidate records, with unsupported queries charged
/// a full heap scan. The cheapest configuration is recommended. The
/// report also carries the workload shape (how many queries constrain
/// both attributes) and the §3.2 variable-independence signal, which
/// explains *why* a recommendation wins: coupled attributes with
/// conjunctive workloads are exactly where the joint index dominates.

#include <limits>
#include <string>
#include <vector>

#include "core/access.h"

namespace ccdb::cqa {

/// One candidate indexing configuration for a two-attribute relation.
enum class IndexChoice {
  kJoint,     ///< one 2-D R*-tree over (x, y)
  kSeparate,  ///< two 1-D R*-trees
  kXOnly,     ///< a single 1-D R*-tree on x
  kYOnly,     ///< a single 1-D R*-tree on y
};

const char* IndexChoiceName(IndexChoice choice);

/// The advisor's findings.
struct AdvisorReport {
  IndexChoice recommendation = IndexChoice::kJoint;

  struct Candidate {
    IndexChoice choice;
    uint64_t total_accesses = 0;  ///< replayed workload cost in page reads
  };
  std::vector<Candidate> candidates;  ///< sorted, cheapest first

  // Workload shape.
  size_t queries_both = 0;
  size_t queries_x_only = 0;
  size_t queries_y_only = 0;

  /// §3.2 signal: true when x and y are independent in every sampled
  /// tuple (separate indexing loses little information then).
  bool attributes_independent = false;

  std::string ToString() const;
};

/// The paper's §3.2 observation made executable: attributes x and y are
/// independent in `rel` when they are independent in every tuple's
/// constraint store (or in the first `sample_tuples` of them); a
/// relational attribute is independent of everything by construction.
bool AreAttributesIndependent(
    const Relation& rel, const std::string& x, const std::string& y,
    size_t sample_tuples = std::numeric_limits<size_t>::max());

/// Replays `workload` against every candidate configuration of `rel`'s
/// attributes (`xattr`, `yattr`) and recommends the cheapest.
/// At most `sample_tuples` tuples are used for the independence probe.
Result<AdvisorReport> AdviseIndexing(
    const Relation& rel, const std::vector<BoxQuery>& workload,
    const std::string& xattr = "x", const std::string& yattr = "y",
    const Rect& domain = Rect::Make2D(-1e12, 1e12, -1e12, 1e12),
    size_t sample_tuples = 100);

}  // namespace ccdb::cqa

#endif  // CCDB_CORE_ADVISOR_H_
