#include "obs/governance.h"

namespace ccdb::obs {

ExecContext::ExecContext(const GovernanceLimits& limits,
                         std::chrono::steady_clock::time_point start,
                         std::shared_ptr<CancelFlag> cancel)
    : limits_(limits), start_(start), cancel_(std::move(cancel)) {
  if (limits_.check_stride == 0) limits_.check_stride = 1;
  if (limits_.deadline_us > 0) {
    deadline_ = start_ + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 limits_.deadline_us));
  }
}

void ExecContext::FullCheck() {
  since_check_ = 0;
  if (aborting_) return;  // latched
  ++checks_;
  if (limits_.trip_at_check != 0 && checks_ >= limits_.trip_at_check &&
      kind_ != TripKind::kCancelled) {
    Trip(TripKind::kCancelled,
         "fault-injected cancellation at governance check " +
             std::to_string(checks_));
    return;
  }
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    Trip(TripKind::kCancelled, "query cancelled");
    return;
  }
  if (limits_.deadline_us > 0 &&
      std::chrono::steady_clock::now() >= deadline_) {
    Trip(TripKind::kDeadline,
         "deadline of " + std::to_string(limits_.deadline_us / 1000.0) +
             " ms exceeded");
  }
}

void ExecContext::TripBudget(std::string detail) {
  // Budget trips truncate under allow_partial (the query keeps its result
  // so far); otherwise they abort like any other trip.
  kind_ = TripKind::kBudget;
  budget_tripped_ = true;
  detail_ = std::move(detail);
  aborting_ = !limits_.allow_partial;
}

void ExecContext::Trip(TripKind kind, std::string detail) {
  kind_ = kind;
  detail_ = std::move(detail);
  aborting_ = true;
}

Status ExecContext::trip_status() const {
  switch (kind_) {
    case TripKind::kDeadline:
      return Status::DeadlineExceeded(detail_);
    case TripKind::kBudget:
      return Status::ResourceExhausted(detail_);
    case TripKind::kCancelled:
      return Status::Cancelled(detail_);
    case TripKind::kNone:
      break;
  }
  return Status::Internal("trip_status() on an untripped context");
}

}  // namespace ccdb::obs
