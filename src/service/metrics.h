#ifndef CCDB_SERVICE_METRICS_H_
#define CCDB_SERVICE_METRICS_H_

/// \file metrics.h
/// Observability for the query service.
///
/// `ServiceMetrics` is a plain-value snapshot (safe to copy out of the
/// running service and print, e.g. by the shell's `\metrics` command);
/// `LatencyRecorder` is the thread-safe accumulator behind its latency
/// fields.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/mutex.h"

namespace ccdb::service {

/// Point-in-time view of the service's counters — a plain-value snapshot
/// over the service's `obs::MetricsRegistry` plus its component stats.
/// All latencies are in microseconds; zero when no query has completed
/// yet.
struct ServiceMetrics {
  // Lifecycle counters.
  uint64_t submitted = 0;       ///< accepted into the queue
  uint64_t rejected = 0;        ///< refused (queue full or shutting down)
  uint64_t completed = 0;       ///< finished successfully
  uint64_t failed = 0;          ///< finished with a non-OK status
  uint64_t slow_queries = 0;    ///< latency crossed ServiceOptions::slow_query_us
  uint64_t traced_queries = 0;  ///< explicit Trace() calls
  // Queue.
  uint64_t queue_depth = 0;     ///< tasks waiting right now
  uint64_t queue_high_water = 0;  ///< max depth ever observed
  uint64_t sessions = 0;        ///< currently open sessions
  uint64_t workers = 0;         ///< worker threads
  // Result cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  // Engine work totals over all executed queries (drained from per-query
  // trace contexts; see obs/trace.h).
  obs::LayerCounters engine;
  // Transactions & MVCC.
  uint64_t txn_begins = 0;      ///< BEGIN statements accepted
  uint64_t txn_commits = 0;     ///< transactions committed (incl. empty)
  uint64_t txn_rollbacks = 0;   ///< explicit ROLLBACKs
  uint64_t txn_conflicts = 0;   ///< commits refused (first committer won)
  uint64_t catalog_epoch = 0;   ///< epoch of the current catalog snapshot
  // Resource governance (deadlines, budgets, cancellation, shedding).
  uint64_t deadline_hits = 0;   ///< queries failed with kDeadlineExceeded
  uint64_t budget_trips = 0;    ///< tuple/constraint/memory budget trips
  uint64_t cancels = 0;         ///< queries cancelled (Cancel() or shutdown)
  uint64_t sheds = 0;           ///< submissions refused by admission control
  uint64_t truncated = 0;       ///< partial results returned (allow_partial)
  // Storage (0 unless the service is wired to a PageManager).
  uint64_t pages_read = 0;
  // Durability (0 unless the service is wired to a DurableStore).
  uint64_t wal_bytes = 0;        ///< log bytes appended by commits
  uint64_t wal_batches = 0;      ///< acknowledged logged batches
  uint64_t wal_fsyncs = 0;       ///< commit-record and header syncs
  uint64_t wal_checkpoints = 0;  ///< log truncations
  uint64_t wal_relations_written = 0;  ///< relations serialized by commits
  uint64_t wal_relations_reused = 0;   ///< relations commits carried over
  // Per-query latency.
  uint64_t latency_count = 0;
  double latency_min_us = 0;
  double latency_mean_us = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  // Registry histogram snapshots (query.latency_us, query.fm_eliminations,
  // query.tuples_out, ...), sorted by name.
  std::vector<obs::Histogram::Snapshot> histograms;

  /// Multi-line human-readable rendering (the `\metrics` output).
  std::string ToString() const;
};

/// Nearest-rank percentile: the value at rank ceil(fraction * N) (1-based)
/// of the sorted samples — the smallest sample such that at least
/// `fraction` of all samples are <= it. Returns 0 on an empty set.
double NearestRankPercentile(std::vector<double> samples, double fraction);

/// Thread-safe per-query latency accumulator.
///
/// Min and mean are exact over all recorded samples; percentiles are
/// computed over a sliding window of the most recent `kWindow` samples
/// (a bounded-memory ring, overwritten oldest-first).
class LatencyRecorder {
 public:
  static constexpr size_t kWindow = 4096;

  void Record(double micros);

  struct Summary {
    uint64_t count = 0;
    double min_us = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p99_us = 0;
  };
  Summary Summarize() const;

 private:
  mutable Mutex mu_{"service.latency"};
  std::vector<double> window_ CCDB_GUARDED_BY(mu_);
  uint64_t count_ CCDB_GUARDED_BY(mu_) = 0;
  double sum_ CCDB_GUARDED_BY(mu_) = 0;
  double min_ CCDB_GUARDED_BY(mu_) = 0;
};

}  // namespace ccdb::service

#endif  // CCDB_SERVICE_METRICS_H_
