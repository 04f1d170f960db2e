// Cost of the observability surfaces.
//
// Phase 1 — scrape cost: an in-process leader (durable QueryService +
// net::Server) runs the experiment-2 join workload to occupy every
// counter and histogram, then we time a full Prometheus scrape —
// MergedSnapshot() of the service+net registries plus text rendering —
// exactly what one GET /metrics on the status listener pays.
//
// Phase 2 — traced-over-wire overhead: the same 12 experiment-2 join
// queries over a loopback net::Client in three modes, timed by
// MeasureModes (bench_common.h: the median of per-round ratios to plain
// over many short rounds that run every mode back to back):
//   wire_plain        Execute, no trace id;
//   wire_traced       Execute with a client-assigned trace_id stamped on
//                     every request (the propagation cost every traced
//                     fleet query pays) — design target ≤5% overhead;
//   wire_fetch_trace  FETCH_TRACE — full per-operator span tree built
//                     server-side and shipped back structured.
//
// With --json each result is one machine-readable line (bench_common.h),
// recorded in CI as BENCH_obs.json.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_obs";
constexpr size_t kQueries = 12;
constexpr int kScrapeIters = 200;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One experiment-2 join script: boxes overlapping an x-band joined with
/// boxes overlapping a y-band (same bands bench_trace uses).
std::string JoinScript(size_t i) {
  const int x_lo = static_cast<int>((i * 157) % 2400);
  const int y_lo = static_cast<int>((i * 311 + 500) % 2400);
  return "R0 = select x >= " + std::to_string(x_lo) + ", x <= " +
         std::to_string(x_lo + 250) + " from Boxes\n" +
         "R1 = select y >= " + std::to_string(y_lo) + ", y <= " +
         std::to_string(y_lo + 250) + " from Boxes\n" +
         "R2 = join R0 and R1";
}

enum class Mode { kPlain, kTraced, kFetchTrace };

/// Total wall seconds to run every script `passes` times over the wire in
/// `mode`.
double RunWire(net::Client* client, const std::vector<std::string>& scripts,
               Mode mode, bool* ok, int passes) {
  const double start = NowS();
  uint64_t trace_id = 0x0b5eab1e;
  for (int pass = 0; pass < passes; ++pass) {
    for (const std::string& script : scripts) {
      Status status = Status::OK();
      switch (mode) {
        case Mode::kPlain:
          status = client->Execute(script).status();
          break;
        case Mode::kTraced: {
          service::QueryOptions opts;
          opts.trace_id = ++trace_id;
          status = client->Execute(script, opts).status();
          break;
        }
        case Mode::kFetchTrace: {
          service::QueryOptions opts;
          opts.trace_id = ++trace_id;
          status = client->FetchTrace(script, opts).status();
          break;
        }
      }
      if (!status.ok()) {
        std::fprintf(stderr, "wire query failed: %s\n",
                     status.ToString().c_str());
        *ok = false;
      }
    }
  }
  return NowS() - start;
}

int Main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);

  // The leader: 250-box database, durable store, service, wire server.
  WorkloadParams params;
  params.data_count = 250;
  Database db;
  Status created = db.Create(
      "Boxes", BoxesToConstraintRelation(GenerateDataBoxes(7, params)));
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
  options.num_workers = 2;
  options.disk = &disk;
  options.store = store->get();
  options.cache_capacity = 0;  // measure execution, not cache hits
  service::QueryService service(&db, options);
  net::ServerOptions sopts;
  sopts.store = store->get();
  auto server = net::Server::Start(&service, sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "setup: %s\n", server.status().ToString().c_str());
    return 1;
  }
  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  if (!client.ok()) {
    std::fprintf(stderr, "setup: %s\n", client.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> scripts;
  for (size_t i = 0; i < kQueries; ++i) scripts.push_back(JoinScript(i));

  // Warm-up (pages in code and data, occupies every hot counter and the
  // latency histogram before the scrape is timed; not measured).
  bool ok = true;
  RunWire(client->get(), scripts, Mode::kPlain, &ok, 1);
  if (!ok) return 1;

  if (!JsonOutputEnabled()) {
    std::printf("Observability cost — %zu experiment-2 join queries over "
                "%zu data boxes\n",
                kQueries, params.data_count);
  }

  // --- Phase 1: scrape cost --------------------------------------------
  // One scrape = merged service+net snapshot + Prometheus text rendering,
  // i.e. the body of one GET /metrics.
  size_t body_bytes = 0;
  const double scrape_start = NowS();
  for (int i = 0; i < kScrapeIters; ++i) {
    const std::string body =
        obs::RenderPrometheus((*server)->MergedSnapshot()) +
        obs::RenderBuildInfo();
    body_bytes = body.size();
  }
  const double us_per_scrape =
      (NowS() - scrape_start) * 1e6 / static_cast<double>(kScrapeIters);
  EmitResult(kBench, "scrape_render", us_per_scrape, "us/scrape",
             {{"bytes", static_cast<double>(body_bytes)}});

  // --- Phase 2: traced-over-wire overhead ------------------------------
  MeasureModes(kBench, {"wire_plain", "wire_traced", "wire_fetch_trace"},
               kQueries, [&](size_t mode, int passes) {
                 return RunWire(client->get(), scripts,
                                static_cast<Mode>(mode), &ok, passes);
               });
  if (!ok) return 1;

  client->get()->Close();
  (*server)->Shutdown();
  return 0;
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) { return ccdb::bench::Main(argc, argv); }
