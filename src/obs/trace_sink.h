#ifndef CCDB_OBS_TRACE_SINK_H_
#define CCDB_OBS_TRACE_SINK_H_

/// \file trace_sink.h
/// Structured per-query trace export (JSONL).
///
/// A `TraceSink` serializes trace events — one JSON object per line — to
/// an `std::ostream`. The service layer writes an event for every
/// slow-query hit (see `ServiceOptions::slow_query_us`) and for every
/// explicit `QueryService::Trace` call, so an operator can tail the
/// stream or post-process it offline. Writes are mutex-serialized and
/// flushed per event, so concurrent workers never interleave lines.

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/trace.h"
#include "util/mutex.h"

namespace ccdb::obs {

/// One exportable per-query record. The three ids are always emitted
/// (zero means "not assigned") so lines join against the `EventLog`
/// stream on `trace_id` and against `\jobs` output on `query_id`.
struct TraceEvent {
  std::string query;          ///< the script as submitted
  double latency_us = 0;      ///< end-to-end latency
  bool slow = false;          ///< crossed the slow-query threshold
  uint64_t query_id = 0;      ///< service-assigned submission id
  uint64_t session = 0;       ///< owning session id
  uint64_t trace_id = 0;      ///< client-assigned trace id
  const TraceNode* root = nullptr;  ///< optional span tree
};

/// Thread-safe JSONL writer over a caller-owned stream.
class TraceSink {
 public:
  /// Writes to `out` (not owned; must outlive the sink).
  explicit TraceSink(std::ostream* out) : out_(out) {}

  /// Serializes one event as a single line and flushes.
  void Emit(const TraceEvent& event);

  /// Events written so far.
  uint64_t events() const;

 private:
  mutable Mutex mu_{"obs.trace_sink"};
  std::ostream* const out_;  // pointer fixed at construction...
  // ...but the stream itself is written only under mu_.
  uint64_t events_ CCDB_GUARDED_BY(mu_) = 0;
};

}  // namespace ccdb::obs

#endif  // CCDB_OBS_TRACE_SINK_H_
