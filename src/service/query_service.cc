#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <set>

#include "lang/query.h"
#include "obs/exposition.h"
#include "obs/metric_names.h"
#include "storage/wal.h"
#include "util/lock_graph.h"

namespace ccdb::service {

namespace {

/// The read view a session's scripts execute against: the session's
/// registered steps first, the shared base second — the query's pinned
/// catalog snapshot, or an open transaction's own copy. The caller holds
/// the session mutex and a pin on the snapshot, so the relations a plan
/// borrows from either stay valid for the whole execution.
class SessionView : public Database {
 public:
  SessionView(const Database* base, const Database* steps)
      : base_(base), steps_(steps) {}

  Result<const Relation*> Get(const std::string& name) const override {
    if (std::shared_ptr<const Relation> step = steps_->Find(name)) {
      return step.get();
    }
    return base_->Get(name);
  }

  bool Has(const std::string& name) const override {
    return steps_->Has(name) || base_->Has(name);
  }

 private:
  const Database* base_;
  const Database* steps_;
};

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// A session: a private step catalog, the mutex that serializes the
/// session's queries (different sessions run in parallel), and the
/// session's transaction state — a private copy of the snapshot pinned at
/// BEGIN, which the transaction writes into and commits as one batch.
struct QueryService::Session {
  /// Serializes the session's queries; held across execution, so it sits
  /// above the whole commit path in the lock order.
  Mutex mu CCDB_LOCK_ORDER(
      "service.commit", "catalog.cell", "obs.event_log", "obs.trace_sink")
      {"service.session"};
  Database steps CCDB_GUARDED_BY(mu);
  bool in_txn CCDB_GUARDED_BY(mu) = false;
  uint64_t txn_id CCDB_GUARDED_BY(mu) = 0;
  uint64_t txn_epoch CCDB_GUARDED_BY(mu) = 0;  ///< the epoch BEGIN pinned
  /// The transaction's catalog: its writes land here and its queries read
  /// it, so it reads its own writes with no overlay.
  Database txn CCDB_GUARDED_BY(mu);
  /// Each name the transaction wrote, with its raw counter at BEGIN.
  std::map<std::string, uint64_t> txn_writes CCDB_GUARDED_BY(mu);

  /// Closes the transaction and drops its copy.
  void EndTxn() CCDB_REQUIRES(mu) {
    in_txn = false;
    txn_id = 0;
    txn_epoch = 0;
    txn = Database();
    txn_writes.clear();
  }
};

/// One queued script execution.
struct QueryService::Task {
  std::shared_ptr<Session> session;
  SessionId owner = 0;
  uint64_t query_id = 0;
  std::string script;
  /// The catalog snapshot pinned at Submit: the query reads this frozen
  /// state no matter what commits while it is queued or running.
  SnapshotPtr snapshot;
  std::promise<Result<QueryResponse>> promise;
  std::chrono::steady_clock::time_point enqueued;
  obs::GovernanceLimits limits;
  std::shared_ptr<obs::CancelFlag> cancel;
  /// True when the submitter supplied its own cancellation flag (as
  /// opposed to the service-created one every task carries for Cancel()).
  bool externally_cancellable = false;
  /// Client-assigned correlation id; stamps the slow-query log line.
  uint64_t trace_id = 0;
  /// Client-minted idempotency key; a COMMIT statement records/reads the
  /// dedup table under it (0 = no idempotency).
  uint64_t request_id = 0;
  /// Set by Trace(): the worker records operator spans and the plan text
  /// here before resolving the promise. Null for Submit.
  TraceReport* report = nullptr;
};

QueryService::QueryService(Database* base, ServiceOptions options)
    : options_(options),
      store_(options.store),
      paused_(options.start_paused),
      submitted_(registry_.GetCounter(obs::names::kQueriesSubmitted)),
      rejected_(registry_.GetCounter(obs::names::kQueriesRejected)),
      completed_(registry_.GetCounter(obs::names::kQueriesCompleted)),
      failed_(registry_.GetCounter(obs::names::kQueriesFailed)),
      slow_(registry_.GetCounter(obs::names::kQueriesSlow)),
      traced_(registry_.GetCounter(obs::names::kQueriesTraced)),
      txn_begins_(registry_.GetCounter(obs::names::kTxnBegins)),
      txn_commits_(registry_.GetCounter(obs::names::kTxnCommits)),
      txn_rollbacks_(registry_.GetCounter(obs::names::kTxnRollbacks)),
      txn_conflicts_(registry_.GetCounter(obs::names::kTxnConflicts)),
      txn_dedup_hits_(registry_.GetCounter(obs::names::kTxnDedupHits)),
      txn_aborts_on_disconnect_(
          registry_.GetCounter(obs::names::kTxnAbortsOnDisconnect)),
      gov_deadline_hits_(registry_.GetCounter(obs::names::kGovDeadlineHits)),
      gov_budget_trips_(registry_.GetCounter(obs::names::kGovBudgetTrips)),
      gov_cancels_(registry_.GetCounter(obs::names::kGovCancels)),
      gov_sheds_(registry_.GetCounter(obs::names::kGovSheds)),
      gov_truncated_(registry_.GetCounter(obs::names::kGovTruncated)),
      latency_hist_(registry_.GetHistogram(obs::names::kQueryLatencyUs)),
      queue_wait_hist_(registry_.GetHistogram(obs::names::kQueryQueueWaitUs)),
      fm_hist_(registry_.GetHistogram(obs::names::kQueryFmEliminations)),
      tuples_out_hist_(registry_.GetHistogram(obs::names::kQueryTuplesOut)) {
  for (size_t i = 0; i < engine_.size(); ++i) {
    engine_[i] = registry_.GetCounter(obs::kLayerCounterFields[i].metric);
  }
  if (base != nullptr) catalog_.Seed(*base);
  const size_t workers = std::max<size_t>(1, options_.num_workers);
  for (size_t i = 0; i < workers; ++i) {
    wake_.push_back(std::make_unique<CondVar>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryService::~QueryService() { Shutdown(); }

SessionId QueryService::OpenSession() {
  MutexLock lock(sessions_mu_);
  SessionId id = next_session_++;
  sessions_[id] = std::make_shared<Session>();
  return id;
}

Status QueryService::CloseSession(SessionId id) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(id));
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // An open transaction dies with its session: its writes were never
  // published, so dropping them IS the rollback — count it. The
  // disconnect-abort counter and event let operators tell "client chose
  // ROLLBACK" from "client vanished mid-transaction".
  MutexLock lock(session->mu);
  if (session->in_txn) {
    txn_rollbacks_->Increment();
    txn_aborts_on_disconnect_->Increment();
    if (options_.event_log != nullptr) {
      obs::Event event;
      event.type = "txn_abort_on_disconnect";
      event.session = id;
      event.detail = "txn " + std::to_string(session->txn_id) +
                     " rolled back: session closed while open";
      options_.event_log->Emit(event);
    }
  }
  return Status::OK();
}

std::shared_ptr<QueryService::Session> QueryService::FindSession(
    SessionId id) const {
  MutexLock lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

obs::GovernanceLimits QueryService::ResolveLimits(
    const QueryOptions& opts) const {
  obs::GovernanceLimits limits = options_.governance;
  if (opts.deadline_us) limits.deadline_us = *opts.deadline_us;
  if (opts.max_tuples) limits.max_tuples = *opts.max_tuples;
  if (opts.max_constraints) limits.max_constraints = *opts.max_constraints;
  if (opts.max_memory_bytes) limits.max_memory_bytes = *opts.max_memory_bytes;
  if (opts.allow_partial) limits.allow_partial = *opts.allow_partial;
  if (opts.trip_at_check > 0) {
    limits.trip_at_check = opts.trip_at_check;
    limits.check_stride = 1;  // deterministic check indices for tests
  }
  return limits;
}

Result<Submission> QueryService::Submit(SessionId id, std::string script,
                                        QueryOptions opts) {
  return Enqueue(id, std::move(script), std::move(opts), nullptr);
}

Result<Submission> QueryService::Enqueue(SessionId id, std::string script,
                                         QueryOptions opts,
                                         TraceReport* report) {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  auto task = std::make_unique<Task>();
  task->session = std::move(session);
  task->owner = id;
  task->query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  task->script = std::move(script);
  // Pin the catalog NOW: whatever commits after this point, the query
  // executes against this frozen snapshot.
  task->snapshot = catalog_.Snapshot();
  task->enqueued = std::chrono::steady_clock::now();
  task->limits = ResolveLimits(opts);
  // Every task carries a cancellation flag (the caller's, or a fresh one)
  // so Cancel(session, query_id) works without client cooperation.
  task->externally_cancellable = opts.cancel != nullptr;
  task->cancel = opts.cancel ? opts.cancel
                             : std::make_shared<obs::CancelFlag>(false);
  task->trace_id = opts.trace_id;
  task->request_id = opts.request_id;
  task->report = report;
  Submission submission;
  submission.query_id = task->query_id;
  submission.future = task->promise.get_future();
  // The recent p50 prices the backlog and sizes a refusal's retry hint,
  // with a 1 ms prior until a query has finished: shedding the very first
  // query because we know nothing about it would be strictly worse than a
  // guess. Summarize copies the latency window, so it is read only when
  // needed, and never under queue_mu_.
  auto recent_p50_us = [this] {
    const double p50 = latency_.Summarize().p50_us;
    return p50 > 0 ? p50 : 1000.0;
  };
  const bool cost_shedding = options_.shed_inflight_us > 0;
  double p50 = cost_shedding ? recent_p50_us() : 0;
  // Admission control: a full queue always sheds; with a configured
  // in-flight budget, shed when the backlog's estimated cost exceeds it.
  bool queue_full = false;
  std::string refusal;
  std::optional<size_t> wake;
  {
    MutexLock lock(queue_mu_);
    if (stopping_) {
      rejected_->Increment();
      return Status::Unavailable("service is shutting down");
    }
    queue_full = queue_.size() >= options_.max_queue_depth;
    if (queue_full) {
      refusal = "request queue full (" + std::to_string(queue_.size()) +
                " of " + std::to_string(options_.max_queue_depth) +
                " slots)";
    } else if (cost_shedding &&
               static_cast<double>(queue_.size() + running_ + 1) * p50 >
                   options_.shed_inflight_us) {
      refusal = "estimated in-flight work exceeds shed threshold";
    } else {
      queue_.push_back(std::move(task));
      queue_high_water_ =
          std::max<uint64_t>(queue_high_water_, queue_.size());
      submitted_->Increment();
      if (!idle_.empty()) {
        wake = idle_.back();
        idle_.pop_back();
      }
    }
  }
  if (refusal.empty()) {
    if (wake) wake_[*wake]->NotifyOne();
    return submission;
  }
  // Either refusal carries a retry-after hint sized to the recent p50, so
  // well-behaved clients back off proportionally to real load.
  rejected_->Increment();
  gov_sheds_->Increment();
  if (!cost_shedding) p50 = recent_p50_us();
  Status shed = Status::Unavailable(refusal);
  shed.WithRetryAfter(
      static_cast<int64_t>(std::max(1.0, std::ceil(p50 / 1000.0))));
  if (options_.event_log != nullptr) {
    obs::Event event;
    event.type = "shed";
    event.session = id;
    event.trace_id = opts.trace_id;
    event.detail = queue_full ? "queue full" : "over cost threshold";
    options_.event_log->Emit(event);
  }
  return shed;
}

Result<QueryResponse> QueryService::Execute(SessionId id,
                                            const std::string& script,
                                            QueryOptions opts) {
  CCDB_ASSIGN_OR_RETURN(Submission submission,
                        Submit(id, script, std::move(opts)));
  return submission.future.get();
}

Status QueryService::Cancel(SessionId session, uint64_t query_id) {
  std::unique_ptr<Task> queued;
  {
    MutexLock lock(queue_mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->query_id == query_id) {
        if ((*it)->owner != session) {
          return Status::NotFound("query " + std::to_string(query_id) +
                                  " does not belong to this session");
        }
        queued = std::move(*it);
        queue_.erase(it);
        break;
      }
    }
    if (!queued) {
      auto it = running_cancels_.find(query_id);
      if (it == running_cancels_.end() || it->second.first != session) {
        return Status::NotFound("no active query " + std::to_string(query_id));
      }
      // Running: raise the flag; the worker unwinds at its next
      // governance check-point and counts the cancellation itself.
      it->second.second->store(true, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  // Queued: fail the future right here — the worker never sees the task.
  failed_->Increment();
  gov_cancels_->Increment();
  queued->promise.set_value(Status::Cancelled(
      "query " + std::to_string(query_id) + " cancelled while queued"));
  return Status::OK();
}

Result<TraceReport> QueryService::Trace(SessionId id,
                                        const std::string& script,
                                        QueryOptions opts) {
  // A script that does not tokenize fails on the worker, like any query.
  auto statements = lang::TokenizeScript(script);
  if (statements.ok() &&
      lang::ClassifyTxnStatement(*statements) != lang::TxnStatement::kNone) {
    return Status::InvalidArgument(
        "trace runs queries; BEGIN, COMMIT and ROLLBACK have no plan");
  }
  TraceReport report;
  report.trace_id = opts.trace_id;
  CCDB_ASSIGN_OR_RETURN(Submission submission,
                        Enqueue(id, script, std::move(opts), &report));
  CCDB_ASSIGN_OR_RETURN(report.response, submission.future.get());
  return report;
}

void QueryService::WorkerLoop(size_t self) {
  for (;;) {
    std::unique_ptr<Task> task;
    {
      MutexLock lock(queue_mu_);
      // Predicate loop in the annotated caller (not a lambda handed to the
      // cv) so the guarded reads stay visible to the thread-safety
      // analysis. A waiting worker is always on the idle stack, unless an
      // Enqueue popped it to wake it.
      while (!((!paused_ && !queue_.empty()) ||
               (stopping_ && queue_.empty()))) {
        if (std::find(idle_.begin(), idle_.end(), self) == idle_.end()) {
          idle_.push_back(self);
        }
        wake_[self]->Wait(queue_mu_);
      }
      idle_.erase(std::remove(idle_.begin(), idle_.end(), self), idle_.end());
      if (queue_.empty()) return;  // stopping, fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      running_cancels_[task->query_id] = {task->owner, task->cancel};
    }
    queue_wait_hist_->Record(
        static_cast<uint64_t>(MicrosSince(task->enqueued)));
    // Operator spans are worth recording if the sink could see them: via
    // the slow-query log, or via a governance trip's trace. "Governed"
    // means actual governance intent — limits or a caller-held
    // cancellation flag — not the service-created flag every task carries,
    // so ungoverned queries never pay the span-recording overhead. A
    // Trace task always records, into its report.
    const bool governed = task->limits.Any() || task->externally_cancellable;
    const bool span_trace =
        options_.trace_sink != nullptr &&
        (options_.slow_query_us > 0 || governed);
    obs::TraceNode local_trace;
    obs::TraceNode* trace = task->report != nullptr ? &task->report->root
                            : span_trace            ? &local_trace
                                                    : nullptr;
    obs::LayerCounters counters;
    // The governance context: armed from the *enqueue* time, so queue
    // wait counts against the deadline. Installed for every task (limits
    // may be all-zero — then only the cancellation flag is live).
    obs::ExecContext exec(task->limits, task->enqueued, task->cancel);
    // Exception barrier: a throw out of execution (bad_alloc, a parser
    // edge case, ...) must fail this one request, not terminate the
    // process — the worker thread stays alive for the next task.
    Result<QueryResponse> result = [&]() -> Result<QueryResponse> {
      try {
        obs::CounterScope scope;
        obs::ExecContextScope governance(&exec);
        // A task that spent its whole deadline in the queue fails before
        // touching the engine.
        exec.FullCheck();
        if (exec.aborting()) return exec.trip_status();
        auto r = RunScript(task.get(), trace);
        counters = scope.counters();
        // Backstop over RunScript's trailing check-point: once an abort
        // has latched, FM helpers bail early and return semantically
        // wrong partial values, so an OK result here must be discarded
        // in favor of the typed trip status — it must never escape.
        if (r.ok() && exec.aborting()) return exec.trip_status();
        return r;
      } catch (const std::exception& e) {
        // Normalized for the wire: what() is unbounded attacker/library
        // text, so clamp it to exactly what a remote client would see —
        // in-process callers and network callers get the identical
        // status.
        return NormalizeStatusForWire(Status::Internal(
            std::string("uncaught exception in worker: ") + e.what()));
      } catch (...) {
        return Status::Internal("uncaught non-standard exception in worker");
      }
    }();
    const double latency_us = MicrosSince(task->enqueued);
    latency_.Record(latency_us);
    latency_hist_->Record(static_cast<uint64_t>(latency_us));
    DrainCounters(counters);
    fm_hist_->Record(counters.fm_eliminations);
    const bool truncated =
        result.ok() && exec.budget_tripped() && !exec.aborting();
    if (result.ok()) {
      result->latency_us = latency_us;
      result->truncated = truncated;
      completed_->Increment();
      tuples_out_hist_->Record(result->relation.size());
    } else {
      failed_->Increment();
    }
    RecordGovernanceOutcome(exec, result.ok() ? Status::OK() : result.status(),
                            truncated);
    const bool slow =
        options_.slow_query_us > 0 && latency_us >= options_.slow_query_us;
    if (slow) slow_->Increment();
    if (task->report != nullptr) traced_->Increment();
    // The slow-query log doubles as the governance post-mortem: a query
    // that tripped (deadline, budget, cancel) emits its trace alongside
    // genuinely slow ones, so "why did this die?" has the same answer
    // path as "why was this slow?". Every Trace is emitted too. Scripts
    // that never reached the executor leave the trace unlabelled — the
    // latency is still reported.
    if ((slow || exec.tripped() || task->report != nullptr) &&
        options_.trace_sink != nullptr) {
      obs::TraceEvent event;
      event.query = task->script;
      event.latency_us = latency_us;
      event.slow = slow;
      event.query_id = task->query_id;
      event.session = task->owner;
      event.trace_id = task->trace_id;
      event.root = trace != nullptr && !trace->label.empty() ? trace : nullptr;
      options_.trace_sink->Emit(event);
    }
    {
      MutexLock lock(queue_mu_);
      --running_;
      running_cancels_.erase(task->query_id);
      // Back on top of the idle stack before the reply, so the caller's
      // next request wakes this thread rather than a colder one.
      if (queue_.empty()) idle_.push_back(self);
    }
    task->promise.set_value(std::move(result));
  }
}

void QueryService::RecordGovernanceOutcome(const obs::ExecContext& ctx,
                                           const Status& status,
                                           bool truncated) {
  if (ctx.budget_tripped()) gov_budget_trips_->Increment();
  if (truncated) gov_truncated_->Increment();
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      gov_deadline_hits_->Increment();
      break;
    case StatusCode::kCancelled:
      gov_cancels_->Increment();
      break;
    default:
      break;  // kResourceExhausted is covered by budget_tripped()
  }
}

void QueryService::DrainCounters(const obs::LayerCounters& counters) {
  if (counters.IsZero()) return;
  for (size_t i = 0; i < engine_.size(); ++i) {
    engine_[i]->Add(counters.*obs::kLayerCounterFields[i].member);
  }
}

Result<QueryResponse> QueryService::RunScript(Task* task,
                                              obs::TraceNode* trace) {
  Session* session = task->session.get();
  // Tokenized once: dispatch and the compiler read these.
  CCDB_ASSIGN_OR_RETURN(auto statements, lang::TokenizeScript(task->script));
  // Transaction controls are whole-statement keywords, dispatched before
  // the step-statement parser ever sees them. Routing them through the
  // normal queue (not Submit) preserves program order with the session's
  // in-flight queries, and makes BEGIN/COMMIT work identically through
  // the network edge — the server's QUERY opcode lands here too.
  switch (lang::ClassifyTxnStatement(statements)) {
    case lang::TxnStatement::kBegin: {
      CCDB_RETURN_IF_ERROR(BeginTxn(session));
      QueryResponse response;
      response.step = "BEGIN";
      return response;
    }
    case lang::TxnStatement::kCommit: {
      CCDB_RETURN_IF_ERROR(CommitTxn(session, task->request_id));
      QueryResponse response;
      response.step = "COMMIT";
      return response;
    }
    case lang::TxnStatement::kRollback: {
      CCDB_RETURN_IF_ERROR(RollbackTxn(session));
      QueryResponse response;
      response.step = "ROLLBACK";
      return response;
    }
    case lang::TxnStatement::kNone:
      break;
  }

  if (options_.execution_hook) options_.execution_hook(task->script);

  MutexLock session_lock(session->mu);
  // The base: inside a transaction, its own copy of the BEGIN-time
  // snapshot with its writes applied (read-your-writes); outside, the
  // snapshot pinned at Submit. Either way no concurrent commit can tear it.
  const Database& base = session->in_txn ? session->txn : *task->snapshot;
  SessionView view(&base, &session->steps);
  CCDB_ASSIGN_OR_RETURN(lang::ScriptRun run,
                        lang::EvaluateScript(statements, view, trace));
  if (task->report != nullptr) {
    task->report->plan_text = std::move(run.plan_text);
  }
  QueryResponse response;
  response.step = run.final_step;
  response.relation = run.relation;
  session->steps.CreateOrReplace(run.final_step, std::move(run.relation));
  return response;
}

// --- Transactions & catalog commits -----------------------------------------------

Status QueryService::Begin(SessionId id) {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) return Status::NotFound("no session " + std::to_string(id));
  return BeginTxn(session.get());
}

Status QueryService::Commit(SessionId id) {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) return Status::NotFound("no session " + std::to_string(id));
  return CommitTxn(session.get());
}

Status QueryService::Rollback(SessionId id) {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) return Status::NotFound("no session " + std::to_string(id));
  return RollbackTxn(session.get());
}

Result<QueryService::TxnInfo> QueryService::TransactionInfo(
    SessionId id) const {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) return Status::NotFound("no session " + std::to_string(id));
  MutexLock lock(session->mu);
  TxnInfo info;
  info.active = session->in_txn;
  if (session->in_txn) {
    info.txn_id = session->txn_id;
    info.snapshot_epoch = session->txn_epoch;
    for (const auto& entry : session->txn_writes) {
      info.staged_writes.push_back(entry.first);
    }
  }
  return info;
}

Status QueryService::BeginTxn(Session* session) {
  MutexLock lock(session->mu);
  if (session->in_txn) {
    return Status::InvalidArgument(
        "a transaction is already open in this session (no nesting)");
  }
  session->in_txn = true;
  session->txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  session->txn = *catalog_.Snapshot(&session->txn_epoch);
  session->txn_writes.clear();
  txn_begins_->Increment();
  return Status::OK();
}

Status QueryService::RollbackTxn(Session* session) {
  MutexLock lock(session->mu);
  if (!session->in_txn) {
    return Status::InvalidArgument("no transaction in progress");
  }
  session->EndTxn();
  txn_rollbacks_->Increment();
  return Status::OK();
}

Status QueryService::CommitTxn(Session* session, uint64_t request_id) {
  // Idempotent retry: a COMMIT whose acknowledgement was lost arrives
  // again — usually on a fresh session after a reconnect, with no open
  // transaction — and must observe the original outcome, not re-apply
  // and not report a spurious "no transaction in progress".
  if (request_id != 0) {
    if (std::optional<Status> prior = LookupRequestOutcome(request_id)) {
      txn_dedup_hits_->Increment();
      return *prior;
    }
  }
  Status outcome = CommitTxnImpl(session, request_id);
  // Record every *decided* commit — success, conflict, or storage
  // failure — so the retry replays the decision. "No transaction in
  // progress" is not a decision about this request id (the transaction
  // never reached COMMIT) and stays unrecorded.
  if (request_id != 0 &&
      outcome.code() != StatusCode::kInvalidArgument) {
    RecordRequestOutcome(request_id, outcome);
  }
  return outcome;
}

Status QueryService::CommitTxnImpl(Session* session, uint64_t request_id) {
  MutexLock session_lock(session->mu);
  if (!session->in_txn) {
    return Status::InvalidArgument("no transaction in progress");
  }
  // Whatever happens below, the transaction is over: a failed commit
  // (conflict or storage error) rolls back — its copies are discarded
  // unpublished, so no version counter ever records it.
  const uint64_t txn_id = session->txn_id;
  const Database txn = std::move(session->txn);
  const std::map<std::string, uint64_t> writes =
      std::move(session->txn_writes);
  session->EndTxn();

  if (writes.empty()) {
    txn_commits_->Increment();
    return Status::OK();  // read-only transaction: nothing to publish
  }

  MutexLock commit_lock(commit_mu_);
  auto next = std::make_shared<Database>(*catalog_.Snapshot());
  // First committer wins: a name this transaction wrote that was
  // committed (created / replaced / dropped) since BEGIN aborts the
  // commit. Raw counters — not bound-versions — so drop/recreate races
  // are caught too.
  for (const auto& [name, counter] : writes) {
    if (next->VersionCounter(name) != counter) {
      txn_conflicts_->Increment();
      if (options_.event_log != nullptr) {
        obs::Event event;
        event.type = "txn_conflict";
        event.detail = "txn " + std::to_string(txn_id) + " conflicts on '" +
                       name + "'";
        options_.event_log->Emit(event);
      }
      Status conflict = Status::Unavailable(
          "transaction " + std::to_string(txn_id) + " conflicts on '" + name +
          "': committed concurrently (first committer wins); rolled back");
      conflict.WithRetryAfter(1);
      return conflict;
    }
  }
  // Rebase: each written name takes its binding in the transaction's
  // copy. A name unbound at both ends (created, then dropped) is a no-op.
  bool changed = false;
  for (const auto& [name, counter] : writes) {
    if (std::shared_ptr<const Relation> relation = txn.Find(name)) {
      next->Bind(name, std::move(relation));
      changed = true;
    } else if (next->Has(name)) {
      CCDB_RETURN_IF_ERROR(next->Drop(name));
      changed = true;
    }
  }
  if (changed) {
    CCDB_RETURN_IF_ERROR(CommitLocked(std::move(next), txn_id, request_id));
  }
  txn_commits_->Increment();
  return Status::OK();
}

Status QueryService::CommitLocked(SnapshotPtr next, uint64_t txn_id,
                                  uint64_t request_id) {
  commit_mu_.AssertHeld();
  DurableStore* store = store_.load(std::memory_order_acquire);
  if (store != nullptr) {
    // Durability before visibility: journal the candidate as one WAL
    // batch tagged with the transaction and request ids.
    CCDB_RETURN_IF_ERROR(store->CommitCatalog(*next, txn_id, request_id));
  }
  catalog_.PublishSnapshot(std::move(next));
  return Status::OK();
}

void QueryService::AttachStore(DurableStore* store) {
  MutexLock commit_lock(commit_mu_);
  store_.store(store, std::memory_order_release);
}

void QueryService::RecordCommittedRequest(uint64_t request_id) {
  RecordRequestOutcome(request_id, Status::OK());
}

void QueryService::RecordRequestOutcome(uint64_t request_id,
                                        const Status& outcome) {
  if (request_id == 0) return;
  MutexLock lock(dedup_mu_);
  auto [it, inserted] = dedup_results_.emplace(request_id, outcome);
  if (!inserted) {
    it->second = outcome;
    return;
  }
  dedup_fifo_.push_back(request_id);
  while (dedup_fifo_.size() > kDedupCapacity) {
    dedup_results_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
}

std::optional<Status> QueryService::LookupRequestOutcome(
    uint64_t request_id) const {
  MutexLock lock(dedup_mu_);
  auto it = dedup_results_.find(request_id);
  if (it == dedup_results_.end()) return std::nullopt;
  return it->second;
}

Status QueryService::ApplyWrite(Database* db, WriteKind kind,
                                const std::string& name, Relation relation) {
  switch (kind) {
    case WriteKind::kCreate:
      return db->Create(name, std::move(relation));
    case WriteKind::kReplace:
      db->CreateOrReplace(name, std::move(relation));
      return Status::OK();
    case WriteKind::kDrop:
      return db->Drop(name);
  }
  return Status::Internal("unreachable write kind");
}

Status QueryService::SessionWrite(SessionId id, WriteKind kind,
                                  const std::string& name, Relation relation) {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) return Status::NotFound("no session " + std::to_string(id));
  MutexLock lock(session->mu);
  if (!session->in_txn) {
    return AutocommitWrite(kind, name, std::move(relation));
  }
  // Into the transaction's own copy, checked against it, so the
  // transaction reads its writes and cannot be confused by concurrent
  // commits. The first write of a name records its BEGIN-time counter.
  const uint64_t counter = session->txn.VersionCounter(name);
  CCDB_RETURN_IF_ERROR(
      ApplyWrite(&session->txn, kind, name, std::move(relation)));
  session->txn_writes.emplace(name, counter);
  return Status::OK();
}

Status QueryService::AutocommitWrite(WriteKind kind, const std::string& name,
                                     Relation relation) {
  MutexLock commit_lock(commit_mu_);
  auto next = std::make_shared<Database>(*catalog_.Snapshot());
  CCDB_RETURN_IF_ERROR(ApplyWrite(next.get(), kind, name, std::move(relation)));
  return CommitLocked(std::move(next), /*txn_id=*/0);
}

Status QueryService::CreateRelation(SessionId id, const std::string& name,
                                    Relation relation) {
  return SessionWrite(id, WriteKind::kCreate, name, std::move(relation));
}

Status QueryService::ReplaceRelation(SessionId id, const std::string& name,
                                     Relation relation) {
  return SessionWrite(id, WriteKind::kReplace, name, std::move(relation));
}

Status QueryService::DropRelation(SessionId id, const std::string& name) {
  return SessionWrite(id, WriteKind::kDrop, name, Relation{});
}

Status QueryService::CreateRelation(const std::string& name,
                                    Relation relation) {
  return AutocommitWrite(WriteKind::kCreate, name, std::move(relation));
}

Status QueryService::ReplaceRelation(const std::string& name,
                                     Relation relation) {
  return AutocommitWrite(WriteKind::kReplace, name, std::move(relation));
}

Status QueryService::DropRelation(const std::string& name) {
  return AutocommitWrite(WriteKind::kDrop, name, Relation{});
}

Status QueryService::Checkpoint() {
  MutexLock commit_lock(commit_mu_);
  DurableStore* store = store_.load(std::memory_order_acquire);
  if (store == nullptr) {
    return Status::Unavailable("service has no durable store attached");
  }
  CCDB_RETURN_IF_ERROR(store->Checkpoint());
  if (options_.event_log != nullptr) {
    obs::Event event;
    event.type = "checkpoint";
    event.detail =
        "wal truncated at lsn " + std::to_string(store->next_lsn());
    options_.event_log->Emit(event);
  }
  return Status::OK();
}

Result<Relation> QueryService::GetRelation(SessionId id,
                                           const std::string& name) const {
  std::shared_ptr<Session> session = FindSession(id);
  if (!session) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  MutexLock session_lock(session->mu);
  if (std::shared_ptr<const Relation> step = session->steps.Find(name)) {
    return *step;
  }
  // The pin keeps the relation alive until it is copied.
  const SnapshotPtr pinned = catalog_.Snapshot();
  const Database& base = session->in_txn ? session->txn : *pinned;
  CCDB_ASSIGN_OR_RETURN(const Relation* relation, base.Get(name));
  return *relation;
}

std::vector<std::string> QueryService::VisibleNames(SessionId id) const {
  std::set<std::string> names;
  std::shared_ptr<Session> session = FindSession(id);
  if (session) {
    MutexLock session_lock(session->mu);
    const SnapshotPtr pinned = catalog_.Snapshot();
    const Database& base = session->in_txn ? session->txn : *pinned;
    for (const std::string& name : base.Names()) names.insert(name);
    for (const std::string& name : session->steps.Names()) {
      names.insert(name);
    }
  } else {
    SnapshotPtr snap = catalog_.Snapshot();
    for (const std::string& name : snap->Names()) names.insert(name);
  }
  return std::vector<std::string>(names.begin(), names.end());
}

Database QueryService::CloneBase() const { return *catalog_.Snapshot(); }

uint64_t QueryService::CatalogEpoch() const { return catalog_.epoch(); }

void QueryService::Resume() {
  {
    MutexLock lock(queue_mu_);
    paused_ = false;
  }
  for (auto& wake : wake_) wake->NotifyOne();
}

void QueryService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    std::deque<std::unique_ptr<Task>> orphaned;
    {
      MutexLock lock(queue_mu_);
      stopping_ = true;
      paused_ = false;
      // Tasks already running finish; tasks still queued fail fast with a
      // typed kCancelled so callers holding futures are never stranded
      // (and can tell "shut down" from a query error).
      orphaned.swap(queue_);
    }
    for (auto& wake : wake_) wake->NotifyOne();
    for (std::unique_ptr<Task>& task : orphaned) {
      failed_->Increment();
      gov_cancels_->Increment();
      task->promise.set_value(Status::Cancelled(
          "query " + std::to_string(task->query_id) +
          " cancelled: service shutting down"));
    }
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  });
}

ServiceMetrics QueryService::Metrics() const {
  ServiceMetrics m;
  m.submitted = submitted_->Value();
  m.rejected = rejected_->Value();
  m.completed = completed_->Value();
  m.failed = failed_->Value();
  m.slow_queries = slow_->Value();
  m.traced_queries = traced_->Value();
  for (size_t i = 0; i < engine_.size(); ++i) {
    m.engine.*obs::kLayerCounterFields[i].member = engine_[i]->Value();
  }
  m.txn_begins = txn_begins_->Value();
  m.txn_commits = txn_commits_->Value();
  m.txn_rollbacks = txn_rollbacks_->Value();
  m.txn_conflicts = txn_conflicts_->Value();
  m.catalog_epoch = catalog_.epoch();
  m.deadline_hits = gov_deadline_hits_->Value();
  m.budget_trips = gov_budget_trips_->Value();
  m.cancels = gov_cancels_->Value();
  m.sheds = gov_sheds_->Value();
  m.truncated = gov_truncated_->Value();
  {
    MutexLock lock(queue_mu_);
    m.queue_depth = queue_.size();
    m.queue_high_water = queue_high_water_;
  }
  {
    MutexLock lock(sessions_mu_);
    m.sessions = sessions_.size();
  }
  m.workers = workers_.size();
  if (options_.disk != nullptr) m.pages_read = options_.disk->stats().reads;
  if (DurableStore* store = store_.load(std::memory_order_acquire)) {
    WalStats wal = store->stats();
    m.wal_bytes = wal.bytes_appended;
    m.wal_batches = wal.batches_committed;
    m.wal_fsyncs = wal.fsyncs;
    m.wal_checkpoints = wal.checkpoints;
    m.wal_relations_written = wal.relations_written;
    m.wal_relations_reused = wal.relations_reused;
  }
  LatencyRecorder::Summary latency = latency_.Summarize();
  m.latency_count = latency.count;
  m.latency_min_us = latency.min_us;
  m.latency_mean_us = latency.mean_us;
  m.latency_p50_us = latency.p50_us;
  m.latency_p99_us = latency.p99_us;
  // Publish the component stats as registry gauges so a registry dump is
  // self-contained, then snapshot the histograms for the caller.
  registry_.SetGauge(obs::names::kQueueDepth, m.queue_depth);
  registry_.SetGauge(obs::names::kQueueHighWater, m.queue_high_water);
  registry_.SetGauge(obs::names::kSessionsOpen, m.sessions);
  registry_.SetGauge(obs::names::kWalBytes, m.wal_bytes);
  registry_.SetGauge(obs::names::kWalBatches, m.wal_batches);
  registry_.SetGauge(obs::names::kWalFsyncs, m.wal_fsyncs);
  registry_.SetGauge(obs::names::kWalCheckpoints, m.wal_checkpoints);
  registry_.SetGauge(obs::names::kWalRelationsWritten,
                     m.wal_relations_written);
  registry_.SetGauge(obs::names::kWalRelationsReused, m.wal_relations_reused);
  registry_.SetGauge(obs::names::kCatalogEpoch, m.catalog_epoch);
  m.histograms = registry_.TakeSnapshot().histograms;
  return m;
}

obs::MetricsRegistry::Snapshot QueryService::MetricsSnapshot() const {
  Metrics();  // publishes the component gauges into the registry
  if (DurableStore* store = store_.load(std::memory_order_acquire)) {
    registry_.SetGauge(obs::names::kWalLsn, store->next_lsn());
  }
  // Conflicts per 1000 commit attempts, so scrapers get a rate without
  // delta arithmetic; 0 while no transaction has tried to commit.
  const uint64_t commits = txn_commits_->Value();
  const uint64_t conflicts = txn_conflicts_->Value();
  const uint64_t attempts = commits + conflicts;
  registry_.SetGauge(obs::names::kTxnConflictRate,
                     attempts == 0 ? 0 : conflicts * 1000 / attempts);
  obs::PublishProcessGauges(&registry_);
  // 0 unless built with CCDB_DEADLOCK_DETECT; a nonzero value names a
  // lock held across a blocking call (fsync, socket I/O) — see the
  // held_over_block section of the lock-graph JSON dump for the site.
  registry_.SetGauge(obs::names::kLockHeldOverBlock,
                     lock_graph::HeldOverBlockCount());
  return registry_.TakeSnapshot();
}

}  // namespace ccdb::service
