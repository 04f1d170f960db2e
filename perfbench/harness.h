#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file harness.h
/// The in-process leader, the closed-loop client loop, and the metric
/// record shared by the timed and the traced run.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "workload.h"

namespace perfbench {

/// CPU seconds used so far by all threads of this process. All timings
/// use this clock: CPU stolen by the host is not charged to the process,
/// so it moves far less than the wall clock on a shared VM.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile `q` in (0, 1), or nothing when fewer than ten
/// samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Named metrics in insertion order; the last value set for a name wins.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets `name` when `value` is present.
  void SetIf(const std::string& name, std::optional<double> value,
             const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Shortest round-trip decimal rendering of a finite double.
std::string JsonNumber(double value);

/// A leader started the way `ccdb_serve` starts one — a DurableStore on an
/// in-memory PageManager, default QueryService options, a net::Server on
/// an ephemeral port — plus one connected client. Members are destroyed
/// in reverse order: client, server, service, store, disk.
struct Leader {
  ccdb::PageManager disk;
  std::unique_ptr<ccdb::DurableStore> store;
  std::unique_ptr<ccdb::service::QueryService> service;
  std::unique_ptr<ccdb::net::Server> server;
  std::unique_ptr<ccdb::net::Client> client;
};

/// Starts a leader and loads `catalog` over the wire, one autocommit LOAD
/// per relation.
ccdb::Result<std::unique_ptr<Leader>> StartLeader(
    const std::vector<std::pair<std::string, ccdb::Relation>>& catalog);

/// What one operation cost and returned.
struct OpOutcome {
  double cpu_ms = 0;
  double wall_ms = 0;
  bool ok = false;
  /// The reply of a successful read.
  std::optional<ccdb::service::QueryResponse> response;
};

/// Called after each operation, outside its timing.
using AfterOp = std::function<void(const Op&, const OpOutcome&)>;

/// The measurements of one closed-loop pass over a list of operations.
struct Phase {
  std::vector<double> read_cpu_ms, read_wall_ms, commit_cpu_ms;
  double cpu_s = 0;  ///< process CPU over the pass, `after_op` excluded
  size_t attempted = 0;
  size_t errors = 0;      ///< requests the server refused or failed
  size_t mismatches = 0;  ///< replies the oracle rejected
  size_t cache_hits = 0;
  size_t commits = 0;
  uint64_t wal_bytes = 0;  ///< WAL appended by the leader during the pass
  uint64_t cache_lookups = 0;       ///< service result-cache lookups
  uint64_t service_cache_hits = 0;  ///< ...of which hits
  double steal_share = 0;  ///< host CPU steal over the pass (/proc/stat)
  std::string first_failure;

  size_t failed() const { return errors + mismatches; }
};

/// Sends `ops` over the leader's one connection, each after the previous
/// reply arrived, and checks every read against the oracle.
Phase RunPhase(Leader* leader, const std::vector<Op>& ops,
               const AfterOp& after_op = nullptr);

/// The traced run: replays each operation in-process through the public
/// functions of every layer and reports the per-layer metrics.
class Tracer {
 public:
  explicit Tracer(
      const std::vector<std::pair<std::string, ccdb::Relation>>& catalog);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Replays one operation after its wire round trip.
  void Replay(const Op& op, const OpOutcome& outcome);

  /// Replays whose in-process answer the oracle rejected, or that failed.
  size_t replay_failures() const;
  const std::string& first_replay_failure() const;

  /// Adds the per-layer metrics of the replays.
  void Report(MetricSet* out) const;

  /// The query shape whose round trips the layer calls explain least.
  std::string largest_uncovered_shape() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The §5.4 paper pins: mean R*-tree page reads per query of the joint and
/// separate strategies for Fig. 4, Fig. 5 and experiment 3, over the
/// paper's 10,000-box data file and its 100- and 500-query files.
void AddPaperPins(MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
