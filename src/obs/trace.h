#ifndef CCDB_OBS_TRACE_H_
#define CCDB_OBS_TRACE_H_

/// \file trace.h
/// Per-query tracing: cross-layer counters and per-operator spans.
///
/// The paper's evaluation (§5.4) is built on quantities the engine must
/// *observe about itself* — candidate tuples scanned vs. pruned, index
/// pages touched, constraint simplifications performed. This file is the
/// substrate for that observability:
///
///  - `LayerCounters` is the set of work counters every engine layer
///    publishes: the constraint layer counts Fourier–Motzkin eliminations,
///    the constraints their pairing steps derived, the box projections it
///    settled without any, and redundancy culls,
///    the CQA operators count constraint stores materialized (refine),
///    tuples or pairs their box test rejected before any FM (filter), and
///    the tuples a relation version's first reader boxed for the
///    version's box cache, the R*-tree counts node visits and leaf hits,
///    and the buffer pool counts page reads and cache hits.
///  - A *thread-local trace context* makes publication cheap and
///    race-free: `Note*` helpers bump plain (non-atomic) fields of the
///    thread's active `LayerCounters`, or do nothing when tracing is off
///    (one thread-local load and a predictable branch — the "tracing off"
///    cost). `CounterScope` installs a context for the extent of a query;
///    nested scopes fold their totals into the enclosing scope on exit.
///  - `TraceNode` is one span of an execution trace: an operator (or a
///    script statement) with wall time, tuple flow, and the counter
///    *deltas* attributable to it (exclusive of its children). The
///    executor builds a `TraceNode` tree shaped exactly like the plan;
///    `ToString` renders the EXPLAIN ANALYZE view and `ToJson` the
///    structured record a `TraceSink` exports.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "obs/metric_names.h"

namespace ccdb::obs {

/// Work counters published by the engine layers while a query runs.
/// Plain fields: a LayerCounters instance is only ever written by the
/// thread that installed it (see CounterScope). Each field has one row in
/// `kLayerCounterFields`, and all code but `ToString` and the `Note*`
/// helpers reaches the fields through that table.
struct LayerCounters {
  uint64_t conjunctions = 0;       ///< constraint stores materialized (CQA)
  uint64_t box_prunes = 0;         ///< tuples/pairs a box test rejected (CQA)
  uint64_t boxes_built = 0;        ///< tuples boxed by a completed cache build
  uint64_t fm_eliminations = 0;    ///< Fourier–Motzkin variable eliminations
  uint64_t box_solves = 0;         ///< projections of boxes settled without FM
  uint64_t redundancy_culls = 0;   ///< members dropped by RemoveRedundant
  uint64_t index_node_visits = 0;  ///< R*-tree nodes loaded
  uint64_t index_leaf_hits = 0;    ///< R*-tree leaf entries matched
  uint64_t pages_read = 0;         ///< buffer-pool misses (simulated disk reads)
  uint64_t pool_hits = 0;          ///< buffer-pool hits
  uint64_t fm_pairings = 0;        ///< constraints FM's pairing step derived

  LayerCounters& operator+=(const LayerCounters& other);
  LayerCounters operator-(const LayerCounters& other) const;
  bool IsZero() const;

  /// Compact one-line rendering for `\trace` spans and the `\metrics`
  /// engine line, e.g. "conj 12, pruned 40, fm 8, culls 2, idx 3/1, io 4/2"
  /// (idx visits/leaf hits, io pages read/pool hits), with
  /// ", boxed N" appended when a box-cache build ran, ", box solves N"
  /// when a projection settled a box without FM, and ", fm pairs N" when
  /// FM's pairing step derived constraints.
  std::string ToString() const;
};

/// One LayerCounters field: the member, its key in the span JSON
/// (`TraceNode::ToJson`), and the registry counter `QueryService` drains
/// it into (metric_names.h).
struct LayerCounterField {
  uint64_t LayerCounters::*member;
  const char* json_key;
  const char* metric;
};

/// Every LayerCounters field, in the order FETCH_TRACE encodes them and
/// the span JSON prints them: reordering rows changes both.
inline constexpr LayerCounterField kLayerCounterFields[] = {
    {&LayerCounters::conjunctions, "conjunctions", names::kCqaConjunctions},
    {&LayerCounters::box_prunes, "box_prunes", names::kCqaBoxPrunes},
    {&LayerCounters::boxes_built, "boxes_built", names::kCqaBoxesBuilt},
    {&LayerCounters::fm_eliminations, "fm_eliminations",
     names::kFmEliminations},
    {&LayerCounters::box_solves, "box_solves", names::kFmBoxSolves},
    {&LayerCounters::redundancy_culls, "redundancy_culls",
     names::kFmRedundancyCulls},
    {&LayerCounters::index_node_visits, "index_node_visits",
     names::kIndexNodeVisits},
    {&LayerCounters::index_leaf_hits, "index_leaf_hits",
     names::kIndexLeafHits},
    {&LayerCounters::pages_read, "pages_read", names::kStoragePagesRead},
    {&LayerCounters::pool_hits, "pool_hits", names::kStoragePoolHits},
    {&LayerCounters::fm_pairings, "fm_pairings", names::kFmPairings},
};

// As many rows as fields, and no field twice: every field has its row.
static_assert(sizeof(LayerCounters) ==
                  std::size(kLayerCounterFields) * sizeof(uint64_t),
              "a LayerCounters field has no kLayerCounterFields row");
static_assert([] {
  for (size_t i = 0; i < std::size(kLayerCounterFields); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (kLayerCounterFields[i].member == kLayerCounterFields[j].member) {
        return false;
      }
    }
  }
  return true;
}(), "two kLayerCounterFields rows name the same field");

namespace internal {
/// The thread's active counter sink; nullptr = tracing off. Defined here,
/// inline, for the reason `g_exec_context` is (obs/governance.h).
inline thread_local LayerCounters* g_active = nullptr;
}  // namespace internal

/// True when a CounterScope is installed on this thread.
inline bool TracingActive() { return internal::g_active != nullptr; }

/// Copy of the thread's running totals (zero when tracing is off).
inline LayerCounters ActiveSnapshot() {
  return internal::g_active != nullptr ? *internal::g_active
                                       : LayerCounters{};
}

// --- Publication points (called by the engine layers) ---

inline void NoteConjunction() {
  if (internal::g_active != nullptr) ++internal::g_active->conjunctions;
}
inline void NoteBoxPrune() {
  if (internal::g_active != nullptr) ++internal::g_active->box_prunes;
}
inline void NoteBoxesBuilt(uint64_t n) {
  if (internal::g_active != nullptr) internal::g_active->boxes_built += n;
}
inline void NoteFmElimination() {
  if (internal::g_active != nullptr) ++internal::g_active->fm_eliminations;
}
inline void NoteBoxSolve() {
  if (internal::g_active != nullptr) ++internal::g_active->box_solves;
}
inline void NoteFmPairing() {
  if (internal::g_active != nullptr) ++internal::g_active->fm_pairings;
}
inline void NoteRedundancyCulls(uint64_t n) {
  if (internal::g_active != nullptr) {
    internal::g_active->redundancy_culls += n;
  }
}
inline void NoteIndexNodeVisit() {
  if (internal::g_active != nullptr) ++internal::g_active->index_node_visits;
}
inline void NoteIndexLeafHit() {
  if (internal::g_active != nullptr) ++internal::g_active->index_leaf_hits;
}
inline void NotePageRead() {
  if (internal::g_active != nullptr) ++internal::g_active->pages_read;
}
inline void NotePoolHit() {
  if (internal::g_active != nullptr) ++internal::g_active->pool_hits;
}

/// RAII trace context: installs a fresh LayerCounters as this thread's
/// active sink. On destruction the previous sink is restored and this
/// scope's totals are folded into it, so an outer (e.g. per-query) scope
/// stays exact when inner scopes are used for finer attribution.
class CounterScope {
 public:
  CounterScope();
  ~CounterScope();

  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

  /// The running totals recorded since construction.
  const LayerCounters& counters() const { return counters_; }

 private:
  LayerCounters counters_;
  LayerCounters* prev_;
};

/// One span of an execution trace: a plan operator or script statement,
/// with the time, tuple flow, and counter deltas attributable to it.
struct TraceNode {
  std::string label;        ///< operator description / statement text
  double wall_us = 0;       ///< inclusive of children
  double self_us = 0;       ///< wall_us minus the children's wall time
  uint64_t tuples_in = 0;   ///< summed input cardinality (0 for leaves)
  uint64_t tuples_out = 0;  ///< output cardinality
  LayerCounters counters;   ///< deltas exclusive of children
  std::vector<TraceNode> children;

  /// Nodes in this subtree (including this one).
  size_t NodeCount() const;

  /// Sum of tuples_out over the whole subtree (including this node).
  uint64_t SumTuplesOut() const;

  /// Counter totals over the whole subtree.
  LayerCounters TotalCounters() const;

  /// EXPLAIN ANALYZE-style annotated tree, one node per line:
  ///   Join  (wall 12.3ms, self 9.1ms, in 120, out 45 | conj 540,
  ///   pruned 4860, fm 2100, culls 30, idx 0/0, io 0/0)
  std::string ToString(int indent = 0) const;

  /// Compact JSON object (one line; used by TraceSink).
  std::string ToJson() const;
};

/// Escapes a string for embedding in a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace ccdb::obs

#endif  // CCDB_OBS_TRACE_H_
