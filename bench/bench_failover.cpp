// Failover-layer performance: what resilience costs when nothing fails,
// and what it buys when things do.
//
// Phase 1 — promotion time: a continuously-syncing replica follows a
// leader through a write burst; the leader dies; measures the wall time
// of Replica::Promote() — the final drain attempt against the dead
// leader, reopening the shipped image writable (fresh WAL), and the
// service store swap. Reported per run plus the mean.
//
// Phase 2 — retry-layer overhead: the same read-only script workload
// over one connection, raw net::Client vs ResilientClient, fault-free.
// The wrapper's cost is a mutex acquisition, a request-id mint, and a
// deadline computation per call; the acceptance bar is <= 3% in qps.
//
// Phase 3 — recovered throughput under loss: a ResilientClient whose
// every connection drops 10% of outgoing frames (drop_every = 10) with a
// bounded recv wait. Every query still completes — via timeout,
// reconnect, and idempotent retry — and the surviving qps is reported
// next to the fault-free figure.
//
// With --json each result is one machine-readable line (bench_common.h),
// recorded in CI as BENCH_failover.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_failover";
constexpr size_t kDataBoxes = 300;
constexpr size_t kQueries = 400;
constexpr int kPromotionRuns = 5;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Relation BoxRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

/// The bench_net read-only shapes, varied per query.
std::string ScriptFor(size_t q) {
  const size_t i = q * 7919;
  const int lo = static_cast<int>((i * 157) % 2400);
  const int lo2 = static_cast<int>((i * 311 + 500) % 2400);
  switch (i % 3) {
    case 0:
      return "R0 = select x >= " + std::to_string(lo) +
             ", x <= " + std::to_string(lo + 400) +
             " from Boxes\nR1 = project R0 on y";
    case 1:
      return "R0 = select y >= " + std::to_string(lo) +
             ", y <= " + std::to_string(lo + 300) + " from Boxes";
    default:
      return "R0 = select x >= " + std::to_string(lo) +
             ", x <= " + std::to_string(lo + 150) +
             " from Boxes\nR1 = select y >= " + std::to_string(lo2) +
             ", y <= " + std::to_string(lo2 + 150) +
             " from Boxes\nR2 = join R0 and R1";
  }
}

/// An in-process leader (durable service + wire server), fresh per use.
struct Leader {
  Database db;
  PageManager disk;
  std::unique_ptr<DurableStore> store;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;
};

std::unique_ptr<Leader> StartLeader() {
  auto leader = std::make_unique<Leader>();
  Status created = leader->db.Create("Boxes", BoxRelation(kDataBoxes, 7));
  if (!created.ok()) {
    std::fprintf(stderr, "setup: %s\n", created.ToString().c_str());
    return nullptr;
  }
  auto store = DurableStore::Create(&leader->disk);
  if (!store.ok()) {
    std::fprintf(stderr, "setup: %s\n", store.status().ToString().c_str());
    return nullptr;
  }
  leader->store = std::move(*store);
  Status committed = leader->store->CommitCatalog(leader->db);
  if (!committed.ok()) {
    std::fprintf(stderr, "setup: %s\n", committed.ToString().c_str());
    return nullptr;
  }
  service::ServiceOptions options;
  options.num_workers = 4;
  options.disk = &leader->disk;
  options.store = leader->store.get();
  leader->service =
      std::make_unique<service::QueryService>(&leader->db, options);
  net::ServerOptions sopts;
  sopts.store = leader->store.get();
  auto server = net::Server::Start(leader->service.get(), sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "setup: %s\n", server.status().ToString().c_str());
    return nullptr;
  }
  leader->server = std::move(*server);
  return leader;
}

// --- Phase 1: promotion time ------------------------------------------------

bool MeasurePromotion() {
  double sum_ms = 0;
  double max_ms = 0;
  for (int run = 0; run < kPromotionRuns; ++run) {
    auto leader = StartLeader();
    if (leader == nullptr) return false;
    Database follower_db;
    service::QueryService follower(&follower_db);
    net::ReplicaOptions ropts;
    ropts.poll_interval_ms = 1;
    auto replica = net::Replica::Start("127.0.0.1", leader->server->port(),
                                       &follower, ropts);
    if (!replica.ok()) {
      std::fprintf(stderr, "replica: %s\n",
                   replica.status().ToString().c_str());
      return false;
    }
    // A burst of committed batches for the replica to have followed.
    for (int j = 0; j < 20; ++j) {
      Status written = leader->service->ReplaceRelation(
          "Boxes", BoxRelation(40, 100 + static_cast<uint64_t>(j)));
      if (!written.ok()) {
        std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
        return false;
      }
    }
    Status caught = (*replica)->WaitCaughtUp(10000);
    if (!caught.ok()) {
      std::fprintf(stderr, "catch-up: %s\n", caught.ToString().c_str());
      return false;
    }
    leader->server->Shutdown();  // the leader dies

    const double start = NowUs();
    auto promoted = (*replica)->Promote();
    const double ms = (NowUs() - start) / 1e3;
    if (!promoted.ok()) {
      std::fprintf(stderr, "promote: %s\n",
                   promoted.status().ToString().c_str());
      return false;
    }
    sum_ms += ms;
    max_ms = std::max(max_ms, ms);
    EmitResult(kBench, "promotion_time", ms, "ms",
               {{"run", static_cast<double>(run)}});
    (*replica)->Stop();
  }
  EmitResult(kBench, "promotion_time_mean", sum_ms / kPromotionRuns, "ms");
  EmitResult(kBench, "promotion_time_max", max_ms, "ms");
  return true;
}

// --- Phases 2 + 3: retry-layer overhead and recovered throughput ------------

/// Runs the workload through `execute`; returns qps, or 0 on failure.
template <typename ExecuteFn>
double MeasureQps(ExecuteFn&& execute) {
  const double start = NowUs();
  for (size_t q = 0; q < kQueries; ++q) {
    auto result = execute(ScriptFor(q));
    if (!result.ok()) {
      std::fprintf(stderr, "query %zu: %s\n", q,
                   result.status().ToString().c_str());
      return 0;
    }
  }
  return static_cast<double>(kQueries) / ((NowUs() - start) / 1e6);
}

bool MeasureOverheadAndRecovery(uint16_t port) {
  auto raw = net::Client::Connect("127.0.0.1", port);
  if (!raw.ok()) {
    std::fprintf(stderr, "raw connect: %s\n",
                 raw.status().ToString().c_str());
    return false;
  }
  const double raw_qps =
      MeasureQps([&](const std::string& s) { return (*raw)->Execute(s); });
  if (raw_qps == 0) return false;

  net::ResilientClientOptions ropts;
  ropts.deadline_ms = 10000;
  auto resilient = net::ResilientClient::Connect("127.0.0.1", port, ropts);
  if (!resilient.ok()) {
    std::fprintf(stderr, "resilient connect: %s\n",
                 resilient.status().ToString().c_str());
    return false;
  }
  const double resilient_qps = MeasureQps(
      [&](const std::string& s) { return (*resilient)->Execute(s); });
  if (resilient_qps == 0) return false;

  const double overhead_pct = 100.0 * (raw_qps - resilient_qps) / raw_qps;
  EmitResult(kBench, "raw_qps", raw_qps, "qps");
  EmitResult(kBench, "resilient_qps", resilient_qps, "qps");
  EmitResult(kBench, "retry_overhead", overhead_pct, "%");

  // 10% of outgoing frames vanish; the bounded recv wait turns each loss
  // into a reconnect + idempotent retry, and every query still completes.
  net::ResilientClientOptions lossy_opts;
  lossy_opts.deadline_ms = 10000;
  lossy_opts.socket_faults.drop_every = 10;
  lossy_opts.recv_timeout_ms = 40;
  auto lossy = net::ResilientClient::Connect("127.0.0.1", port, lossy_opts);
  if (!lossy.ok()) {
    std::fprintf(stderr, "lossy connect: %s\n",
                 lossy.status().ToString().c_str());
    return false;
  }
  const double lossy_qps =
      MeasureQps([&](const std::string& s) { return (*lossy)->Execute(s); });
  if (lossy_qps == 0) return false;
  EmitResult(kBench, "recovered_qps_drop10", lossy_qps, "qps",
             {{"drop_every", 10}, {"recv_timeout_ms", 40}});
  EmitResult(kBench, "lossy_reconnects",
             static_cast<double>((*lossy)->reconnects()), "count");
  EmitResult(kBench, "lossy_retried_calls",
             static_cast<double>((*lossy)->retried_calls()), "count");
  return true;
}

int Main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  if (!JsonOutputEnabled()) {
    std::printf("bench_failover: promotion time, retry-layer overhead, "
                "recovered qps under 10%% frame drop\n");
  }
  if (!MeasurePromotion()) return 1;
  auto leader = StartLeader();
  if (leader == nullptr) return 1;
  if (!MeasureOverheadAndRecovery(leader->server->port())) return 1;
  leader->server->Shutdown();
  return 0;
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) { return ccdb::bench::Main(argc, argv); }
