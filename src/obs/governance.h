#ifndef CCDB_OBS_GOVERNANCE_H_
#define CCDB_OBS_GOVERNANCE_H_

/// \file governance.h
/// Per-query resource governance: deadlines, cooperative cancellation,
/// and work budgets.
///
/// CQA evaluation is worst-case explosive — Fourier–Motzkin projection can
/// square the constraint count per eliminated variable, and constraint
/// joins grow quadratically — so a production front door must be able to
/// *bound* a query, the lesson of the DEDALE and MLPQ engines. This file
/// is the substrate:
///
///  - `GovernanceLimits` are the knobs: a wall-clock deadline and budgets
///    on tuples materialized, constraints materialized, and (approximate,
///    cumulative) bytes allocated by the engine layers.
///  - `ExecContext` is one query's armed instance: it accumulates charges
///    published by the engine layers, polls the deadline and cancellation
///    flag on a stride, and *latches* a typed trip status
///    (kDeadlineExceeded / kResourceExhausted / kCancelled) the first time
///    a limit is crossed.
///  - Publication mirrors obs/trace.h exactly: a thread-local active
///    context installed by `ExecContextScope`, charge helpers that are a
///    thread-local load and a predictable branch when governance is off,
///    and `CheckGovernance()` — the cooperative check-point every
///    Status-returning engine loop calls to unwind cleanly.
///
/// Unwinding contract: value-returning constraint code (Fourier–Motzkin)
/// cannot propagate a Status, so it *bails early* when
/// `GovernanceAborting()` is set, returning a partial (wrong!) value; the
/// nearest Status-returning caller is required to call `CheckGovernance()`
/// before using such a value, which converts the latched trip into the
/// typed error and discards the garbage. Truncation (`allow_partial`) is
/// different: budget-tripped queries stop *consuming new tuples* at the
/// operator loops but never bail mid-constraint-computation, so a partial
/// result is always a sound subset of the true answer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace ccdb::obs {

/// A query's cooperative cancellation flag, shared between the submitter
/// (who sets it) and the executing thread (who polls it).
using CancelFlag = std::atomic<bool>;

/// Governance knobs for one query. Zero always means "unlimited".
struct GovernanceLimits {
  double deadline_us = 0;         ///< wall-clock budget (queue wait included)
  uint64_t max_tuples = 0;        ///< tuples materialized across all operators
  uint64_t max_constraints = 0;   ///< constraints materialized (FM included)
  uint64_t max_memory_bytes = 0;  ///< approximate cumulative bytes allocated
  /// Budget trips truncate (stop consuming input, return a partial result
  /// flagged `truncated`) instead of failing. Deadline and cancellation
  /// always abort.
  bool allow_partial = false;
  /// Fault injection for tests (mirrors FaultInjectingPager): latch a
  /// cancellation on the Nth full governance check. 0 disables.
  uint64_t trip_at_check = 0;
  /// Full (clock + cancel flag) check every N charges. Tests set 1 for a
  /// deterministic check count; the default amortizes the clock read.
  uint32_t check_stride = 64;

  /// True when any limit, token trip, or deadline is configured.
  bool Any() const {
    return deadline_us > 0 || max_tuples > 0 || max_constraints > 0 ||
           max_memory_bytes > 0 || trip_at_check > 0;
  }
};

/// What tripped a governed query (kNone while within limits).
enum class TripKind { kNone, kDeadline, kBudget, kCancelled };

/// One query's armed governance state. Written only by the executing
/// thread (charges and checks); the cancellation flag is the single
/// cross-thread channel.
class ExecContext {
 public:
  /// `start` anchors the deadline (the service passes the enqueue time so
  /// the deadline covers queue wait). `cancel` may be null.
  ExecContext(const GovernanceLimits& limits,
              std::chrono::steady_clock::time_point start,
              std::shared_ptr<CancelFlag> cancel = nullptr);

  // --- Charges (engine publication points; cheap, strided full checks) ---

  void ChargeTuples(uint64_t n) {
    tuples_ += n;
    if (limits_.max_tuples != 0 && tuples_ > limits_.max_tuples &&
        !tripped()) {
      TripBudget("tuple budget exceeded (" + std::to_string(tuples_) +
                 " > " + std::to_string(limits_.max_tuples) + ")");
    }
    MaybeFullCheck();
  }

  void ChargeConstraints(uint64_t n) {
    constraints_ += n;
    if (limits_.max_constraints != 0 &&
        constraints_ > limits_.max_constraints && !tripped()) {
      TripBudget("constraint budget exceeded (" +
                 std::to_string(constraints_) + " > " +
                 std::to_string(limits_.max_constraints) + ")");
    }
    MaybeFullCheck();
  }

  void ChargeBytes(uint64_t n) {
    bytes_ += n;
    if (limits_.max_memory_bytes != 0 && bytes_ > limits_.max_memory_bytes &&
        !tripped()) {
      TripBudget("memory budget exceeded (~" + std::to_string(bytes_) +
                 " > " + std::to_string(limits_.max_memory_bytes) +
                 " bytes)");
    }
    MaybeFullCheck();
  }

  /// Deadline + cancellation + fault-injection poll. Called on a stride by
  /// the charge helpers and directly by `CheckGovernance()`. Latched: once
  /// aborting, later checks are no-ops; a truncating (budget) trip can
  /// still escalate to a deadline/cancel abort.
  void FullCheck();

  // --- State ---

  bool tripped() const { return kind_ != TripKind::kNone; }
  /// True when the query must unwind (any trip except a truncating one).
  bool aborting() const { return aborting_; }
  /// True when a budget tripped under allow_partial: operators stop
  /// consuming input but the result so far is still returned.
  bool truncating() const { return kind_ == TripKind::kBudget && !aborting_; }
  TripKind trip_kind() const { return kind_; }
  /// True if a budget ever tripped (sticky across an escalation to a
  /// deadline/cancel abort — the metrics layer counts both).
  bool budget_tripped() const { return budget_tripped_; }

  /// The typed error for an aborting trip (kInternal if none — callers
  /// gate on aborting()).
  Status trip_status() const;

  uint64_t checks() const { return checks_; }
  uint64_t tuples() const { return tuples_; }
  uint64_t constraints() const { return constraints_; }
  uint64_t bytes() const { return bytes_; }
  const GovernanceLimits& limits() const { return limits_; }

 private:
  void MaybeFullCheck() {
    if (++since_check_ >= limits_.check_stride) FullCheck();
  }
  void TripBudget(std::string detail);
  void Trip(TripKind kind, std::string detail);

  GovernanceLimits limits_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point deadline_;  // meaningful iff set
  std::shared_ptr<CancelFlag> cancel_;

  uint64_t tuples_ = 0;
  uint64_t constraints_ = 0;
  uint64_t bytes_ = 0;
  uint64_t checks_ = 0;
  uint32_t since_check_ = 0;

  TripKind kind_ = TripKind::kNone;
  bool aborting_ = false;
  bool budget_tripped_ = false;
  std::string detail_;
};

namespace internal {
/// The thread's active governance context; nullptr = ungoverned.
extern thread_local ExecContext* g_exec_context;
}  // namespace internal

/// The active context (nullptr when ungoverned).
inline ExecContext* ActiveExecContext() { return internal::g_exec_context; }

/// RAII installer: makes `ctx` the thread's active context for the extent
/// of one query execution (the worker wraps RunScript in one).
class ExecContextScope {
 public:
  explicit ExecContextScope(ExecContext* ctx)
      : prev_(internal::g_exec_context) {
    internal::g_exec_context = ctx;
  }
  ~ExecContextScope() { internal::g_exec_context = prev_; }

  ExecContextScope(const ExecContextScope&) = delete;
  ExecContextScope& operator=(const ExecContextScope&) = delete;

 private:
  ExecContext* prev_;
};

// --- Charge points (called by the engine layers, by the Note*() sites) ---

inline void GovernTuples(uint64_t n = 1) {
  if (ExecContext* c = internal::g_exec_context) c->ChargeTuples(n);
}
inline void GovernBytes(uint64_t n) {
  if (ExecContext* c = internal::g_exec_context) c->ChargeBytes(n);
}

/// One materialized constraint of approximately `bytes` footprint —
/// a combined constraint + memory charge with a single thread-local load
/// (Conjunction::Add is the hottest charge site).
inline void GovernanceConstraintCharge(uint64_t bytes) {
  if (ExecContext* c = internal::g_exec_context) {
    c->ChargeConstraints(1);
    c->ChargeBytes(bytes);
  }
}

/// Cheap latched-flag read for value-returning code (Fourier–Motzkin)
/// that must stop early but cannot return a Status. A caller seeing a
/// value computed while this was true must discard it (the nearest
/// Status boundary's CheckGovernance() does).
inline bool GovernanceAborting() {
  ExecContext* c = internal::g_exec_context;
  return c != nullptr && c->aborting();
}

/// True when a budget tripped under allow_partial: operator loops stop
/// consuming input and the query returns a truncated (sound-subset)
/// result.
inline bool GovernanceTruncating() {
  ExecContext* c = internal::g_exec_context;
  return c != nullptr && c->truncating();
}

/// The cooperative check-point for Status-returning layers: polls the
/// deadline/cancellation and converts an aborting trip into its typed
/// status. No-op (OK) when the thread is ungoverned.
inline Status CheckGovernance() {
  ExecContext* c = internal::g_exec_context;
  if (c == nullptr) return Status::OK();
  c->FullCheck();
  if (c->aborting()) return c->trip_status();
  return Status::OK();
}

}  // namespace ccdb::obs

#endif  // CCDB_OBS_GOVERNANCE_H_
