// Over-the-wire performance of the network edge.
//
// Phase 1 — client scaling: an in-process leader (durable QueryService +
// net::Server) is driven by 1/2/4/8 *separate client processes* (this
// binary re-executed in --client mode), each running a mixed read-only
// script workload over one connection. Reports end-to-end queries/second
// and the p99 round-trip latency per client count — the wire protocol's
// framing, Status transport, and thread-per-connection dispatch are all
// on the measured path.
//
// Phase 2 — replication lag: a WAL-shipping replica follows the same
// leader while it commits a continuous stream of catalog writes. Reports
// batches applied, the maximum and mean apply lag observed during the
// write storm (in committed-but-unapplied batches), and the time to
// fully catch up after the writes stop.
//
// With --json each result is one machine-readable line (bench_common.h),
// recorded in CI as BENCH_net.json.
//
// Subcommands (used by the harness itself and tools/stress_net.sh):
//   bench_net --client PORT ID QUERIES   connect to 127.0.0.1:PORT, run
//                                        QUERIES scripts, print one
//                                        latency (us) per line
//   bench_net --load PORT COUNT SEED     load a COUNT-box "Boxes"
//                                        relation into the server
//   bench_net --promote PORT             ask the replica at PORT to
//                                        promote; prints the new term

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_net";
constexpr size_t kQueriesPerClient = 250;
constexpr size_t kDataBoxes = 300;

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

/// The same mixed read-only shapes bench_service uses, varied per client
/// and per query.
std::string ScriptFor(int client_id, size_t q) {
  const size_t i = static_cast<size_t>(client_id) * 7919 + q;
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

// --- Subcommand: --client ---------------------------------------------------

int RunClient(uint16_t port, int client_id, size_t queries) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "client %d: connect: %s\n", client_id,
                 client.status().ToString().c_str());
    return 1;
  }
  for (size_t q = 0; q < queries; ++q) {
    const std::string script = ScriptFor(client_id, q);
    const double start = NowUs();
    auto result = (*client)->Execute(script);
    if (!result.ok()) {
      std::fprintf(stderr, "client %d: query %zu: %s\n", client_id, q,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%.1f\n", NowUs() - start);
  }
  return 0;
}

// --- Subcommand: --load -----------------------------------------------------

int RunLoad(uint16_t port, size_t count, uint64_t seed) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "load: connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  Status loaded = (*client)->LoadRelation("Boxes", BoxRelation(count, seed));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.ToString().c_str());
    return 1;
  }
  return 0;
}

// --- Subcommand: --promote --------------------------------------------------

int RunPromote(uint16_t port) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "promote: connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto term = (*client)->Promote();
  if (!term.ok()) {
    std::fprintf(stderr, "promote: %s\n", term.status().ToString().c_str());
    return 1;
  }
  std::printf("promoted to term %llu\n",
              static_cast<unsigned long long>(*term));
  return 0;
}

// --- Phase 1: client scaling ------------------------------------------------

struct ChildProc {
  pid_t pid = -1;
  int out_fd = -1;
};

/// Forks one --client child whose stdout is a pipe back to us.
bool SpawnClient(const char* exe, uint16_t port, int client_id,
                 size_t queries, ChildProc* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    char port_arg[16], id_arg[16], queries_arg[16];
    std::snprintf(port_arg, sizeof(port_arg), "%u", port);
    std::snprintf(id_arg, sizeof(id_arg), "%d", client_id);
    std::snprintf(queries_arg, sizeof(queries_arg), "%zu", queries);
    execl(exe, exe, "--client", port_arg, id_arg, queries_arg,
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  close(fds[1]);
  out->pid = pid;
  out->out_fd = fds[0];
  return true;
}

struct ScalingResult {
  double qps = 0;
  double p99_us = 0;
  bool ok = false;
};

ScalingResult MeasureClients(const char* exe, uint16_t port, int clients) {
  std::vector<ChildProc> children(static_cast<size_t>(clients));
  const double start = NowUs();
  for (int c = 0; c < clients; ++c) {
    if (!SpawnClient(exe, port, c, kQueriesPerClient,
                     &children[static_cast<size_t>(c)])) {
      std::fprintf(stderr, "spawn failed for client %d\n", c);
      return {};
    }
  }
  // Drain every child's latency stream. Reading sequentially is fine:
  // children run concurrently regardless, and each child's full output
  // (~2 KB) fits in its pipe buffer.
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(clients) * kQueriesPerClient);
  for (ChildProc& child : children) {
    FILE* stream = fdopen(child.out_fd, "r");
    if (stream == nullptr) return {};
    double us = 0;
    while (std::fscanf(stream, "%lf", &us) == 1) latencies.push_back(us);
    fclose(stream);
  }
  bool all_ok = true;
  for (ChildProc& child : children) {
    int status = 0;
    waitpid(child.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) all_ok = false;
  }
  const double wall_us = NowUs() - start;
  if (!all_ok ||
      latencies.size() !=
          static_cast<size_t>(clients) * kQueriesPerClient) {
    std::fprintf(stderr, "client-scaling run failed (%zu/%zu latencies)\n",
                 latencies.size(),
                 static_cast<size_t>(clients) * kQueriesPerClient);
    return {};
  }
  ScalingResult result;
  result.qps = static_cast<double>(latencies.size()) / (wall_us / 1e6);
  result.p99_us = service::NearestRankPercentile(latencies, 0.99);
  result.ok = true;
  return result;
}

// --- Phase 2: replication lag -----------------------------------------------

struct LagResult {
  uint64_t writes = 0;
  uint64_t batches_applied = 0;
  uint64_t max_lag = 0;
  double mean_lag = 0;
  double catchup_ms = 0;
  bool ok = false;
};

LagResult MeasureReplicaLag(service::QueryService* leader, uint16_t port) {
  Database follower_db;
  service::QueryService follower(&follower_db);
  net::ReplicaOptions ropts;
  ropts.poll_interval_ms = 1;
  auto replica = net::Replica::Start("127.0.0.1", port, &follower, ropts);
  if (!replica.ok()) {
    std::fprintf(stderr, "replica: %s\n", replica.status().ToString().c_str());
    return {};
  }
  Status warm = (*replica)->WaitCaughtUp(10000);
  if (!warm.ok()) {
    std::fprintf(stderr, "replica bootstrap: %s\n", warm.ToString().c_str());
    return {};
  }

  // Instantaneous apply lag = batches the leader has committed minus
  // batches the replica has applied, sampled after every commit. (The
  // replica's own `lag_batches` is as-of its last completed sync — it
  // reads 0 whenever a sync just finished, which is almost always.)
  const uint64_t base_lsn = (*replica)->stats().applied_lsn;

  // ~600 ms of continuous catalog writes; sample lag after each commit.
  LagResult result;
  double lag_sum = 0;
  uint64_t samples = 0;
  const double end = NowUs() + 600e3;
  while (NowUs() < end) {
    Status written =
        leader->ReplaceRelation("Boxes", BoxRelation(40, 1000 + result.writes));
    if (!written.ok()) {
      std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
      return {};
    }
    ++result.writes;
    const uint64_t committed = base_lsn + result.writes;
    const uint64_t applied = (*replica)->stats().applied_lsn;
    const uint64_t lag = committed > applied ? committed - applied : 0;
    result.max_lag = std::max(result.max_lag, lag);
    lag_sum += static_cast<double>(lag);
    ++samples;
  }
  const double catchup_start = NowUs();
  Status caught = (*replica)->WaitCaughtUp(30000);
  if (!caught.ok()) {
    std::fprintf(stderr, "catch-up: %s\n", caught.ToString().c_str());
    return {};
  }
  result.catchup_ms = (NowUs() - catchup_start) / 1e3;
  result.mean_lag = samples ? lag_sum / static_cast<double>(samples) : 0;
  result.batches_applied = (*replica)->stats().batches_applied;
  (*replica)->Stop();
  result.ok = true;
  return result;
}

// --- Harness ----------------------------------------------------------------

int Main(int argc, char** argv) {
  // Subcommand modes (exec'd children / stress-script helpers).
  if (argc >= 2 && std::strcmp(argv[1], "--client") == 0) {
    if (argc != 5) {
      std::fprintf(stderr, "usage: bench_net --client PORT ID QUERIES\n");
      return 2;
    }
    return RunClient(static_cast<uint16_t>(std::atoi(argv[2])),
                     std::atoi(argv[3]),
                     static_cast<size_t>(std::atol(argv[4])));
  }
  if (argc >= 2 && std::strcmp(argv[1], "--load") == 0) {
    if (argc != 5) {
      std::fprintf(stderr, "usage: bench_net --load PORT COUNT SEED\n");
      return 2;
    }
    return RunLoad(static_cast<uint16_t>(std::atoi(argv[2])),
                   static_cast<size_t>(std::atol(argv[3])),
                   static_cast<uint64_t>(std::atoll(argv[4])));
  }
  if (argc >= 2 && std::strcmp(argv[1], "--promote") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: bench_net --promote PORT\n");
      return 2;
    }
    return RunPromote(static_cast<uint16_t>(std::atoi(argv[2])));
  }
  ParseBenchFlags(argc, argv);

  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe[exe_len] = '\0';

  // The shared leader: durable store + service + wire server.
  Database db;
  Status created = db.Create("Boxes", BoxRelation(kDataBoxes, 7));
  if (!created.ok()) {
    std::fprintf(stderr, "setup: %s\n", created.ToString().c_str());
    return 1;
  }
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  if (!store.ok()) {
    std::fprintf(stderr, "setup: %s\n", store.status().ToString().c_str());
    return 1;
  }
  Status committed = (*store)->CommitCatalog(db);
  if (!committed.ok()) {
    std::fprintf(stderr, "setup: %s\n", committed.ToString().c_str());
    return 1;
  }
  service::ServiceOptions options;
  options.num_workers = 4;
  options.disk = &disk;
  options.store = store->get();
  service::QueryService service(&db, options);
  net::ServerOptions sopts;
  sopts.store = store->get();
  auto server = net::Server::Start(&service, sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "setup: %s\n", server.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*server)->port();

  if (!JsonOutputEnabled()) {
    std::printf("bench_net: %zu queries/client over the wire, port %u\n",
                kQueriesPerClient, port);
  }
  for (int clients : {1, 2, 4, 8}) {
    const ScalingResult r = MeasureClients(exe, port, clients);
    if (!r.ok) return 1;
    EmitResult(kBench, "wire_qps", r.qps, "qps",
               {{"clients", static_cast<double>(clients)}});
    EmitResult(kBench, "wire_p99", r.p99_us, "us",
               {{"clients", static_cast<double>(clients)}});
  }

  const LagResult lag = MeasureReplicaLag(&service, port);
  if (!lag.ok) return 1;
  EmitResult(kBench, "replica_writes", static_cast<double>(lag.writes),
             "batches");
  EmitResult(kBench, "replica_batches_applied",
             static_cast<double>(lag.batches_applied), "batches");
  EmitResult(kBench, "replica_max_lag", static_cast<double>(lag.max_lag),
             "batches");
  EmitResult(kBench, "replica_mean_lag", lag.mean_lag, "batches");
  EmitResult(kBench, "replica_catchup", lag.catchup_ms, "ms");

  (*server)->Shutdown();
  return 0;
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) { return ccdb::bench::Main(argc, argv); }
