#ifndef CCDB_OBS_METRIC_NAMES_H_
#define CCDB_OBS_METRIC_NAMES_H_

/// \file metric_names.h
/// The canonical list of registry metric names.
///
/// Every metric published into a `MetricsRegistry` is declared here and
/// documented in DESIGN.md ("Observability" — metric table);
/// `tools/ccdb_lint.py` (wired into ctest) fails when a name below is
/// missing from DESIGN.md or is never emitted anywhere in `src/`, so this
/// header is the single source of truth the lint greps.

#include <vector>

namespace ccdb::obs::names {

// --- Service lifecycle (counters) ---
inline constexpr char kQueriesSubmitted[] = "queries.submitted";
inline constexpr char kQueriesRejected[] = "queries.rejected";
inline constexpr char kQueriesCompleted[] = "queries.completed";
inline constexpr char kQueriesFailed[] = "queries.failed";
inline constexpr char kQueriesSlow[] = "queries.slow";
inline constexpr char kQueriesTraced[] = "queries.traced";

// --- Engine layers (counters, drained from per-query trace contexts) ---
inline constexpr char kCqaConjunctions[] = "cqa.conjunctions";
inline constexpr char kCqaBoxPrunes[] = "cqa.box_prunes";
inline constexpr char kCqaBoxesBuilt[] = "cqa.boxes_built";
inline constexpr char kFmEliminations[] = "fm.eliminations";
inline constexpr char kFmBoxSolves[] = "fm.box_solves";
inline constexpr char kFmPairings[] = "fm.pairings";
inline constexpr char kFmRedundancyCulls[] = "fm.redundancy_culls";
inline constexpr char kIndexNodeVisits[] = "index.node_visits";
inline constexpr char kIndexLeafHits[] = "index.leaf_hits";
inline constexpr char kStoragePagesRead[] = "storage.pages_read";
inline constexpr char kStoragePoolHits[] = "storage.pool_hits";

// --- Resource governance (counters) ---
inline constexpr char kGovDeadlineHits[] = "governance.deadline_hits";
inline constexpr char kGovBudgetTrips[] = "governance.budget_trips";
inline constexpr char kGovCancels[] = "governance.cancels";
inline constexpr char kGovSheds[] = "governance.sheds";
inline constexpr char kGovTruncated[] = "governance.truncated";

// --- Transactions & MVCC (counters; catalog.epoch is a gauge) ---
inline constexpr char kTxnBegins[] = "txn.begins";
inline constexpr char kTxnCommits[] = "txn.commits";
inline constexpr char kTxnRollbacks[] = "txn.rollbacks";
inline constexpr char kTxnConflicts[] = "txn.conflicts";
inline constexpr char kCatalogEpoch[] = "catalog.epoch";  // gauge
/// Conflicts per 1000 commit attempts (permille; gauge, computed at
/// exposition time so scrapers get a rate without delta arithmetic).
inline constexpr char kTxnConflictRate[] = "txn.conflict_rate";  // gauge
/// Retried COMMITs answered from the bounded request-id dedup table
/// (the retry re-read the original outcome; nothing re-applied).
inline constexpr char kTxnDedupHits[] = "txn.dedup_hits";
/// Open transactions rolled back because their session closed (client
/// disconnected, or the session was closed with a transaction open).
inline constexpr char kTxnAbortsOnDisconnect[] = "txn.aborts_on_disconnect";

// --- Service view (gauges, published at snapshot time) ---
inline constexpr char kQueueDepth[] = "queue.depth";
inline constexpr char kQueueHighWater[] = "queue.high_water";
inline constexpr char kSessionsOpen[] = "sessions.open";
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheEntries[] = "cache.entries";
inline constexpr char kWalBytes[] = "wal.bytes";
inline constexpr char kWalBatches[] = "wal.batches";
inline constexpr char kWalFsyncs[] = "wal.fsyncs";
inline constexpr char kWalCheckpoints[] = "wal.checkpoints";
inline constexpr char kWalRelationsWritten[] = "wal.relations_written";
inline constexpr char kWalRelationsReused[] = "wal.relations_reused";
inline constexpr char kWalLsn[] = "wal.lsn";  // gauge: next LSN to commit

// --- Replication health (gauges published after every sync round) ---
inline constexpr char kReplicaLagBatches[] = "replica.lag_batches";
inline constexpr char kReplicaLagBytes[] = "replica.lag_bytes";
inline constexpr char kReplicaLastApplyLsn[] = "replica.last_apply_lsn";
inline constexpr char kReplicaResyncs[] = "replica.resyncs";
/// Current sync-retry backoff in milliseconds (gauge; 0 while the leader
/// is healthy, grows exponentially — capped — while it is unreachable).
inline constexpr char kReplicaBackoffMs[] = "replica.backoff_ms";

// --- Process identity (gauges, published at exposition time) ---
inline constexpr char kProcessUptimeSeconds[] = "process.uptime_seconds";
inline constexpr char kProcessStartTime[] = "process.start_time";
/// Rendered as `ccdb_build_info{version="..."} 1` — the Prometheus
/// build-info convention (the version label carries git describe).
inline constexpr char kBuildInfo[] = "build.info";

// --- Network edge (net::Server registry; counters unless noted) ---
inline constexpr char kNetConnectionsOpen[] = "net.connections.open";  // gauge
inline constexpr char kNetConnectionsTotal[] = "net.connections.total";
inline constexpr char kNetBytesIn[] = "net.bytes_in";
inline constexpr char kNetBytesOut[] = "net.bytes_out";
inline constexpr char kNetFramesIn[] = "net.frames_in";
inline constexpr char kNetProtocolErrors[] = "net.protocol_errors";
inline constexpr char kNetShipBatches[] = "net.ship.batches";
inline constexpr char kNetShipSnapshots[] = "net.ship.snapshots";
/// Leader term this server is serving under (gauge; bumped by promotion,
/// the fencing token carried in HELLO_OK / SHIP_END / SNAPSHOT).
inline constexpr char kNetTerm[] = "net.term";

/// Times a thread entered a blocking call (WAL fsync, socket syscall)
/// while holding a ccdb lock (gauge; 0 unless built with
/// CCDB_DEADLOCK_DETECT — see util/lock_graph.h).
inline constexpr char kLockHeldOverBlock[] = "lock.held_over_block";

// --- Per-query distributions (histograms) ---
inline constexpr char kQueryLatencyUs[] = "query.latency_us";
/// Microseconds from Submit until a worker popped the task.
inline constexpr char kQueryQueueWaitUs[] = "query.queue_wait_us";
inline constexpr char kQueryFmEliminations[] = "query.fm_eliminations";
inline constexpr char kQueryTuplesOut[] = "query.tuples_out";

/// Every name declared above, in declaration order. The exposition
/// coverage test registers each one and asserts it renders; the lint
/// cross-checks that no declared constant is missing from this list.
inline std::vector<const char*> AllMetricNames() {
  return {
      kQueriesSubmitted,  kQueriesRejected,    kQueriesCompleted,
      kQueriesFailed,     kQueriesSlow,        kQueriesTraced,
      kCqaConjunctions,   kCqaBoxPrunes,       kCqaBoxesBuilt,
      kFmEliminations,    kFmBoxSolves,        kFmPairings,
      kFmRedundancyCulls,
      kIndexNodeVisits,   kIndexLeafHits,      kStoragePagesRead,
      kStoragePoolHits,   kGovDeadlineHits,    kGovBudgetTrips,
      kGovCancels,        kGovSheds,           kGovTruncated,
      kTxnBegins,         kTxnCommits,         kTxnRollbacks,
      kTxnConflicts,      kCatalogEpoch,       kTxnConflictRate,
      kTxnDedupHits,      kTxnAbortsOnDisconnect,
      kQueueDepth,        kQueueHighWater,     kSessionsOpen,
      kCacheHits,         kCacheMisses,        kCacheEntries,
      kWalBytes,          kWalBatches,         kWalFsyncs,
      kWalCheckpoints,    kWalRelationsWritten, kWalRelationsReused,
      kWalLsn,            kReplicaLagBatches,
      kReplicaLagBytes,   kReplicaLastApplyLsn, kReplicaResyncs,
      kReplicaBackoffMs,  kProcessUptimeSeconds, kProcessStartTime,
      kBuildInfo,         kNetConnectionsOpen, kNetConnectionsTotal,
      kNetBytesIn,        kNetBytesOut,        kNetFramesIn,
      kNetProtocolErrors, kNetShipBatches,     kNetShipSnapshots,
      kNetTerm,           kLockHeldOverBlock,  kQueryLatencyUs,
      kQueryQueueWaitUs,  kQueryFmEliminations, kQueryTuplesOut,
  };
}

/// Names in AllMetricNames() that are histograms (the rest are counters
/// or gauges); the coverage test uses this to register the right kind.
inline std::vector<const char*> HistogramMetricNames() {
  return {kQueryLatencyUs, kQueryQueueWaitUs, kQueryFmEliminations,
          kQueryTuplesOut};
}

}  // namespace ccdb::obs::names

#endif  // CCDB_OBS_METRIC_NAMES_H_
