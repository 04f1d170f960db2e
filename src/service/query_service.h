#ifndef CCDB_SERVICE_QUERY_SERVICE_H_
#define CCDB_SERVICE_QUERY_SERVICE_H_

/// \file query_service.h
/// The concurrent front door of CCDB.
///
/// The paper's Figure 1 places CQA as the middle layer of a *system*; this
/// is the layer above it: a `QueryService` that accepts §3.3 step-scripts
/// from many concurrent sessions and executes them on a fixed worker
/// thread pool with a bounded queue.
///
/// Threading model (lock order: session mutex -> commit mutex -> store
/// mutex; the snapshot cell, queue, and metrics locks are leaves, never
/// held across execution):
///  - The *base catalog* is MVCC: a chain of immutable `Database`
///    snapshots published through an `MvccCatalog` (see data/snapshot.h).
///    Every query pins the current snapshot at Submit and executes
///    against frozen state — readers never block behind a committing
///    writer, and a writer never waits for readers to drain. Writers
///    serialize on the commit mutex only against each other: write into
///    a copy of the current snapshot (the copy shares every relation),
///    journal it through the store's WAL, then publish with one pointer
///    swap.
///  - *Transactions*: `Begin`/`Commit`/`Rollback` (also reachable as
///    `BEGIN`/`COMMIT`/`ROLLBACK` statements through Execute, locally or
///    over the wire). BEGIN copies the current snapshot into the
///    session's own `Database`; the transaction's writes go into that
///    copy and its queries read it. COMMIT rebases the names it wrote
///    onto a copy of the then-current snapshot and publishes that through
///    the autocommit writes' path, as ONE WAL batch carrying the
///    transaction id — recovery and WAL-shipping replicas apply it
///    all-or-nothing. Conflict rule: first committer wins; a commit that
///    would overwrite a concurrently-committed name fails with
///    kUnavailable (retry hint attached) and the transaction is rolled
///    back.
///  - *Dispatch*: the queue is FIFO and `num_workers` bounds how many
///    tasks run at once. Each worker waits on its own condition variable,
///    and idle workers form a stack: Enqueue wakes the most recently idle
///    one. A worker that finds the queue empty after a task goes back on
///    top of the stack before it resolves the task's promise, so a
///    closed-loop client's next query wakes the thread whose caches its
///    last query warmed, instead of the next worker in turn.
///  - *Execution*: every script — Execute/Submit and Trace alike — runs on
///    a worker under its governance context. The worker tokenizes it once
///    (`lang::TokenizeScript`); transaction dispatch and
///    `lang::EvaluateScript` both read that statement list: compiled to one
///    plan (lang/compile.h), optimized, and run by the one plan executor,
///    with operator spans when it is traced. Nothing memoizes results: a
///    script repeated against an unchanged catalog runs again.
///  - *Step results* never touch the base catalog: each session owns a
///    private step `Database`, and queries execute against an overlay view
///    (steps first, snapshot second). A script's intermediate steps are
///    local to it; only its final step is registered in the session.
///    Queries within one session serialize on the session's mutex;
///    different sessions run fully in parallel.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag / std::call_once only
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/database.h"
#include "data/snapshot.h"
#include "obs/event_log.h"
#include "obs/governance.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "service/metrics.h"
#include "storage/pager.h"
#include "util/mutex.h"
#include "util/status.h"

namespace ccdb {
class DurableStore;
}

namespace ccdb::service {

using SessionId = uint64_t;

/// Construction-time knobs of a QueryService.
struct ServiceOptions {
  size_t num_workers = 4;       ///< worker threads (min 1)
  size_t max_queue_depth = 64;  ///< queued (not yet running) task bound
  bool start_paused = false;    ///< workers wait for Resume() (tests)
  PageManager* disk = nullptr;  ///< optional: pages-read in metrics
  /// Optional durable catalog. When set, every base-catalog write is
  /// journaled through the store's WAL and acknowledged only after the
  /// commit record is on disk; on commit failure the in-memory catalog is
  /// rolled back, so the caller never observes an unlogged mutation.
  DurableStore* store = nullptr;
  /// Slow-query threshold in microseconds; 0 disables the slow-query log.
  /// A query whose end-to-end latency (queue wait included) reaches the
  /// threshold is counted in `queries.slow`, and — when a `trace_sink` is
  /// attached — its operator-level trace is emitted there as JSONL.
  double slow_query_us = 0;
  /// Optional sink receiving slow-query traces and every explicit Trace()
  /// result. Not owned; must outlive the service.
  obs::TraceSink* trace_sink = nullptr;
  /// Optional structured event log receiving admission sheds, transaction
  /// conflicts, and checkpoints. Not owned; must outlive the service.
  obs::EventLog* event_log = nullptr;
  /// Default resource governance for every query (deadline, tuple /
  /// constraint / memory budgets, partial-result policy). Per-query
  /// `QueryOptions` override individual fields. Zero fields = ungoverned.
  /// The deadline covers queue wait: it is armed at Submit time.
  obs::GovernanceLimits governance;
  /// Overload shedding: refuse a submission (kUnavailable + retry-after
  /// hint) when the estimated in-flight work — (queued + running + 1)
  /// tasks × recent p50 latency (1 ms prior while no query has finished
  /// yet) — exceeds this many microseconds. 0 disables cost-based
  /// shedding; a saturated queue always sheds.
  double shed_inflight_us = 0;
  /// Test-only: invoked on the worker at the start of every script
  /// execution (after transaction-control dispatch). May throw — this is
  /// how tests exercise the worker's exception barrier now that execution
  /// reads immutable snapshots instead of a caller-subclassable Database.
  std::function<void(const std::string& script)> execution_hook;
};

/// Per-query overrides of the service-level governance defaults, plus an
/// optional external cancellation token.
struct QueryOptions {
  std::optional<double> deadline_us;
  std::optional<uint64_t> max_tuples;
  std::optional<uint64_t> max_constraints;
  std::optional<uint64_t> max_memory_bytes;
  std::optional<bool> allow_partial;
  /// Fault injection for tests: cancel at the Nth governance check
  /// (see obs::GovernanceLimits::trip_at_check). Also forces
  /// check_stride = 1 so check indices are deterministic.
  uint64_t trip_at_check = 0;
  /// External cancellation token; the query also gets an internal one so
  /// Cancel(session, query_id) works without supplying this.
  std::shared_ptr<obs::CancelFlag> cancel;
  /// Client-assigned trace id (0 = unassigned). Stamped onto slow-query
  /// log lines and event-log entries for this query, and carried across
  /// the wire by the network protocol, so one id follows a request
  /// through every process it touches.
  uint64_t trace_id = 0;
  /// Client-minted idempotency key (0 = none). A COMMIT carrying a
  /// request id has its outcome registered in a bounded dedup table, so
  /// a retry of the same COMMIT — after a lost acknowledgement — returns
  /// the original outcome instead of re-applying or reporting a spurious
  /// "no transaction in progress". The id is also journaled in the WAL
  /// commit record, so a promoted replica can seed its own table from
  /// the batches it applied.
  uint64_t request_id = 0;
};

/// A successfully executed script.
struct QueryResponse {
  std::string step;        ///< name of the final step
  Relation relation;       ///< the final step's relation
  bool cache_hit = false;  ///< always false: the service caches no results
  bool truncated = false;  ///< partial result: a budget tripped under
                           ///< allow_partial (a sound subset)
  double latency_us = 0;   ///< execution latency (queue wait included)
};

/// An accepted submission: the id to Cancel() by and the future that
/// resolves when a worker finishes (or cancels) the query.
struct Submission {
  uint64_t query_id = 0;
  std::future<Result<QueryResponse>> future;
};

/// The result of an explicit Trace() call — the EXPLAIN ANALYZE view.
struct TraceReport {
  QueryResponse response;  ///< the query result
  obs::TraceNode root;     ///< per-operator span tree of the plan that ran
  std::string plan_text;   ///< optimized plan rendering
  uint64_t trace_id = 0;   ///< the caller's trace id, echoed back
};

/// A concurrent, metered, transactional executor of CQA step-scripts.
///
/// All public methods are thread-safe.
class QueryService {
 public:
  /// Serves queries over a catalog seeded with a copy of `*base`, version
  /// counters kept (pass an empty `Database` — or null — for a fresh
  /// catalog). The copy shares `*base`'s relation objects, which no
  /// catalog changes in place, so later writes to `*base` are not
  /// observed, and service writes do not touch `*base` (read the current
  /// state back with `CloneBase()`).
  explicit QueryService(Database* base, ServiceOptions options = {});

  /// Drains and joins (equivalent to Shutdown()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Sessions ---

  /// Opens a session: a private step namespace + FIFO execution context.
  SessionId OpenSession();

  /// Closes a session; its step results are discarded once in-flight
  /// queries finish. Fails if the id is unknown.
  Status CloseSession(SessionId id);

  // --- Query execution ---

  /// Enqueues a script; the returned future resolves when a worker
  /// finishes it. Fails immediately with kNotFound for an unknown
  /// session, and with kUnavailable when the service is shutting down or
  /// admission control sheds the request (queue full, or estimated
  /// in-flight cost above ServiceOptions::shed_inflight_us) — shed
  /// statuses carry a `retry_after_ms()` backoff hint derived from the
  /// recent p50 latency. `opts` overrides the service's governance
  /// defaults for this query; its deadline is armed now, so queue wait
  /// counts against it.
  Result<Submission> Submit(SessionId id, std::string script,
                            QueryOptions opts = {});

  /// Submit + wait. Queries within one session are serialized, so a
  /// client that alternates Execute calls sees strict program order.
  Result<QueryResponse> Execute(SessionId id, const std::string& script,
                                QueryOptions opts = {});

  /// Cancels a query of `session`. A still-queued query fails its future
  /// with kCancelled immediately; a running query's cancellation flag is
  /// raised and it unwinds with kCancelled at its next governance
  /// check-point (OK here means "requested", not "already stopped").
  /// kNotFound if the id is unknown, finished, or owned by another
  /// session.
  Status Cancel(SessionId session, uint64_t query_id);

  /// Execute with operator spans on (the shell's `\trace`): the same
  /// queue, admission control, governance (`opts`) and plan as Execute,
  /// reported with the optimized plan's text and its span tree. The trace
  /// is also emitted to `ServiceOptions::trace_sink` when one is
  /// attached, stamped with `opts.trace_id` — including the partial span
  /// tree of a query that a deadline, budget or cancellation stopped
  /// mid-plan. A transaction control (`BEGIN`, `COMMIT`, `ROLLBACK`) has
  /// no plan to trace and fails with kInvalidArgument without running.
  Result<TraceReport> Trace(SessionId id, const std::string& script,
                            QueryOptions opts = {});

  // --- Transactions ---
  //
  // A session holds at most one open transaction (no nesting). BEGIN
  // copies the current catalog snapshot into the session; session-scoped
  // writes then go into that copy (queries in the session read it);
  // COMMIT publishes everything as one WAL batch carrying the transaction
  // id. The same controls are reachable as `BEGIN` / `COMMIT` /
  // `ROLLBACK` statements through Submit/Execute — which is how remote
  // clients get them.

  /// Opens a transaction. kInvalidArgument if one is already open.
  Status Begin(SessionId id);

  /// Commits the open transaction: first-committer-wins conflict check,
  /// one durable WAL batch (when a store is attached), one atomic
  /// snapshot publication. ANY failure — conflict (kUnavailable with a
  /// retry hint) or commit error — rolls the transaction back: its
  /// writes are discarded and per-name versions are exactly as if the
  /// transaction never happened. kInvalidArgument if none is open.
  Status Commit(SessionId id);

  /// Discards the open transaction's writes. kInvalidArgument if none is
  /// open.
  Status Rollback(SessionId id);

  /// Point-in-time view of a session's transaction (the shell's `\txn`).
  struct TxnInfo {
    bool active = false;
    uint64_t txn_id = 0;          ///< 0 when inactive
    uint64_t snapshot_epoch = 0;  ///< epoch pinned at BEGIN
    std::vector<std::string> staged_writes;  ///< names written, sorted
  };
  Result<TxnInfo> TransactionInfo(SessionId id) const;

  // --- Base-catalog writes ---
  //
  // Session-scoped writes go into the session's open transaction when
  // one is active, and autocommit otherwise. The session-less overloads
  // always autocommit (an internally serialized single-write commit).
  // For an autocommit write with a DurableStore attached, OK means the
  // write is durable (its WAL commit record is on disk); any failure
  // means the published catalog — per-name version counters included —
  // is exactly as it was before the call (the failed candidate snapshot
  // is simply discarded, never published).

  Status CreateRelation(SessionId id, const std::string& name,
                        Relation relation);
  Status ReplaceRelation(SessionId id, const std::string& name,
                         Relation relation);
  Status DropRelation(SessionId id, const std::string& name);

  Status CreateRelation(const std::string& name, Relation relation);
  Status ReplaceRelation(const std::string& name, Relation relation);
  Status DropRelation(const std::string& name);

  /// Applies pending page images and truncates the WAL (the shell's
  /// `\checkpoint`). Fails with kUnavailable when no store is attached.
  Status Checkpoint();

  /// Attaches (or replaces) the durable store every later commit
  /// journals through. This is the promotion hook: a replica's service
  /// runs storeless (reads only) until `Replica::Promote()` reopens the
  /// disk writable and hands the new store here. Serializes against
  /// in-flight commits on the commit mutex.
  void AttachStore(DurableStore* store) CCDB_EXCLUDES(commit_mu_);

  /// Records `request_id` (0 = ignored) as durably committed with an OK
  /// outcome in the COMMIT dedup table. Promotion seeds the new leader's
  /// table from the request ids journaled in every WAL batch it applied,
  /// so a client whose COMMIT was acked by the old leader — or applied
  /// but unacked — retries against the new leader and still gets
  /// exactly-once semantics.
  void RecordCommittedRequest(uint64_t request_id);

  // --- Reads for front-ends (shell `show`, `list`, ...) ---

  /// Copies a relation, resolving session steps before base relations.
  Result<Relation> GetRelation(SessionId id, const std::string& name) const;

  /// Sorted names visible to a session (its steps + base relations; an
  /// open transaction's writes included).
  std::vector<std::string> VisibleNames(SessionId id) const;

  /// Copy of the current catalog snapshot (e.g. for `save`), version
  /// counters kept. It shares the snapshot's relation objects.
  Database CloneBase() const;

  /// Epoch of the currently published catalog snapshot (starts at 1;
  /// bumped by every commit).
  uint64_t CatalogEpoch() const;

  // --- Lifecycle ---

  /// Releases workers constructed with `start_paused` (no-op otherwise).
  void Resume();

  /// Graceful shutdown: stop accepting, fail every still-queued task with
  /// kCancelled, let tasks already running finish, join the workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Point-in-time metrics snapshot.
  ServiceMetrics Metrics() const;

  /// Raw registry snapshot for exposition: everything `Metrics()` reads
  /// plus the durability/health gauges (`wal.lsn`, `txn.conflict_rate`)
  /// and the process-identity gauges. The network server merges this
  /// with its own registry to build the scrape surfaces.
  obs::MetricsRegistry::Snapshot MetricsSnapshot() const;

 private:
  struct Session;
  struct Task;

  /// Submit, plus the report a Trace task fills in (null for Submit).
  Result<Submission> Enqueue(SessionId id, std::string script,
                             QueryOptions opts, TraceReport* report);

  /// Worker `self`'s loop; it waits on `wake_[self]`.
  void WorkerLoop(size_t self);

  /// Executes one task's script against the snapshot pinned at Submit (a
  /// session with an open transaction reads its own copy instead). Transaction-control statements are
  /// dispatched here, before parsing. When `trace` is non-null the plan
  /// runs with operator spans recorded into it (the slow-query log and
  /// Trace).
  Result<QueryResponse> RunScript(Task* task, obs::TraceNode* trace);
  std::shared_ptr<Session> FindSession(SessionId id) const;

  // Transaction control on a resolved session (the public SessionId
  // overloads and the worker's statement dispatch both land here).
  Status BeginTxn(Session* session);
  Status CommitTxn(Session* session, uint64_t request_id = 0);
  Status RollbackTxn(Session* session);

  /// CommitTxn minus the dedup wrapper: the actual conflict check,
  /// journaling, and publication.
  Status CommitTxnImpl(Session* session, uint64_t request_id);

  /// The one committed-write path: journals `next` — a copy of the current
  /// snapshot with a transaction's rebased writes or a single autocommit
  /// write applied — as one WAL batch, then publishes it. On any failure
  /// `next` is discarded unpublished (version counters never move).
  Status CommitLocked(SnapshotPtr next, uint64_t txn_id,
                      uint64_t request_id = 0) CCDB_REQUIRES(commit_mu_);

  /// Dedup-table internals (leaf mutex; never held across commits).
  void RecordRequestOutcome(uint64_t request_id, const Status& outcome)
      CCDB_EXCLUDES(dedup_mu_);
  std::optional<Status> LookupRequestOutcome(uint64_t request_id) const
      CCDB_EXCLUDES(dedup_mu_);

  /// A session-scoped write: goes into the open transaction's copy, or
  /// autocommits when none is open. Both apply it with `ApplyWrite`.
  enum class WriteKind { kCreate, kReplace, kDrop };
  static Status ApplyWrite(Database* db, WriteKind kind,
                           const std::string& name, Relation relation);
  Status SessionWrite(SessionId id, WriteKind kind, const std::string& name,
                      Relation relation);
  Status AutocommitWrite(WriteKind kind, const std::string& name,
                         Relation relation);

  /// Service defaults overlaid with the per-query overrides.
  obs::GovernanceLimits ResolveLimits(const QueryOptions& opts) const;

  /// Counts a finished governed query against the governance counters and
  /// emits its trace to the sink when it tripped. Returns nothing; safe to
  /// call for ungoverned queries (no-op on an OK, untripped result).
  void RecordGovernanceOutcome(const obs::ExecContext& ctx,
                               const Status& status, bool truncated);

  /// Adds a finished query's layer counters to the engine totals.
  void DrainCounters(const obs::LayerCounters& counters);

  ServiceOptions options_;
  /// The MVCC catalog cell: readers pin snapshots lock-free (modulo the
  /// cell's short internal mutex), committers publish through it.
  MvccCatalog catalog_;
  /// Serializes committers (autocommit writes, transaction commits,
  /// checkpoints) against each other only — never against readers.
  /// Acquired after a session mutex, before the store's internal mutex.
  /// (protocol-lock: guards the commit *ordering* protocol, not fields —
  /// WAL durability precedes snapshot publication.)
  mutable Mutex commit_mu_ CCDB_LOCK_ORDER("storage.store", "catalog.cell")
      {"service.commit"};
  std::atomic<uint64_t> next_txn_id_{1};
  /// The durable store commits journal through. Atomic because
  /// AttachStore (promotion) may swap it while metric snapshots read it;
  /// commit-path readers hold commit_mu_, so a commit never straddles a
  /// swap.
  std::atomic<DurableStore*> store_;

  /// COMMIT idempotency: the outcomes of the most recent request-id
  /// carrying commits, FIFO-bounded at kDedupCapacity so a chatty client
  /// cannot grow it without bound. Eviction is oldest-first — a retry
  /// arriving after 4096 newer decided commits is outside the window and
  /// sees normal (non-dedup) semantics.
  static constexpr size_t kDedupCapacity = 4096;
  mutable Mutex dedup_mu_{"service.dedup"};
  std::map<uint64_t, Status> dedup_results_ CCDB_GUARDED_BY(dedup_mu_);
  std::deque<uint64_t> dedup_fifo_ CCDB_GUARDED_BY(dedup_mu_);

  // Task queue. `running_` counts tasks popped but not yet finished (for
  // admission-control cost estimates); `running_cancels_` maps in-flight
  // query ids to their cancellation flags so Cancel() can reach them.
  mutable Mutex queue_mu_{"service.queue"};
  /// One per worker, built before any worker starts; worker i waits only
  /// on wake_[i].
  std::vector<std::unique_ptr<CondVar>> wake_;
  /// Idle workers' indices, the most recently idle last (see "Dispatch").
  std::vector<size_t> idle_ CCDB_GUARDED_BY(queue_mu_);
  std::deque<std::unique_ptr<Task>> queue_ CCDB_GUARDED_BY(queue_mu_);
  bool stopping_ CCDB_GUARDED_BY(queue_mu_) = false;
  bool paused_ CCDB_GUARDED_BY(queue_mu_) = false;
  uint64_t queue_high_water_ CCDB_GUARDED_BY(queue_mu_) = 0;
  size_t running_ CCDB_GUARDED_BY(queue_mu_) = 0;
  std::map<uint64_t, std::pair<SessionId, std::shared_ptr<obs::CancelFlag>>>
      running_cancels_ CCDB_GUARDED_BY(queue_mu_);
  std::atomic<uint64_t> next_query_id_{1};
  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;

  // Sessions.
  mutable Mutex sessions_mu_ CCDB_ACQUIRED_BEFORE(queue_mu_)
      {"service.sessions"};
  std::map<SessionId, std::shared_ptr<Session>> sessions_
      CCDB_GUARDED_BY(sessions_mu_);
  SessionId next_session_ CCDB_GUARDED_BY(sessions_mu_) = 1;

  // Metrics: the registry owns every counter/histogram; the named handles
  // below are resolved once in the constructor (hot path is lock-free).
  mutable obs::MetricsRegistry registry_;
  obs::Counter* submitted_;
  obs::Counter* rejected_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* slow_;
  obs::Counter* traced_;
  /// One registry counter per `obs::kLayerCounterFields` row, same order.
  std::array<obs::Counter*, std::size(obs::kLayerCounterFields)> engine_;
  obs::Counter* txn_begins_;
  obs::Counter* txn_commits_;
  obs::Counter* txn_rollbacks_;
  obs::Counter* txn_conflicts_;
  obs::Counter* txn_dedup_hits_;
  obs::Counter* txn_aborts_on_disconnect_;
  obs::Counter* gov_deadline_hits_;
  obs::Counter* gov_budget_trips_;
  obs::Counter* gov_cancels_;
  obs::Counter* gov_sheds_;
  obs::Counter* gov_truncated_;
  obs::Histogram* latency_hist_;
  obs::Histogram* queue_wait_hist_;
  obs::Histogram* fm_hist_;
  obs::Histogram* tuples_out_hist_;
  LatencyRecorder latency_;
};

}  // namespace ccdb::service

#endif  // CCDB_SERVICE_QUERY_SERVICE_H_
