// Throughput of the concurrent query service.
//
// Measures end-to-end queries/second of `service::QueryService` on a mixed
// read-only CQA workload (selections, projections, small joins over the
// §5.4 box data):
//   1. worker-pool scaling at 1/2/4/8 workers, and
//   2. one closed-loop session at 1 and 4 workers: process CPU per query
//      when each query waits for the previous reply, which shows what
//      the pool's dispatch costs a single client.
//
// Every row is the median of kRepetitions runs, with the quartiles.
//
// With --json each result is one machine-readable line (see
// bench_common.h), recorded in CI as the BENCH_* trajectory.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_service";
constexpr size_t kRepetitions = 5;

/// CPU seconds used so far by all threads of this process.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Distinct read-only scripts over the shared "Boxes" relation.
std::vector<std::string> MakeScripts(size_t count) {
  std::vector<std::string> scripts;
  for (size_t i = 0; i < count; ++i) {
    const int lo = static_cast<int>((i * 157) % 2400);
    const int lo2 = static_cast<int>((i * 311 + 500) % 2400);
    switch (i % 3) {
      case 0:
        scripts.push_back("R0 = select x >= " + std::to_string(lo) +
                          ", x <= " + std::to_string(lo + 400) +
                          " from Boxes\nR1 = project R0 on y");
        break;
      case 1:
        scripts.push_back("R0 = select y >= " + std::to_string(lo) +
                          ", y <= " + std::to_string(lo + 300) +
                          " from Boxes");
        break;
      default:
        scripts.push_back("R0 = select x >= " + std::to_string(lo) +
                          ", x <= " + std::to_string(lo + 250) +
                          " from Boxes\nR1 = select y >= " +
                          std::to_string(lo2) + ", y <= " +
                          std::to_string(lo2 + 250) +
                          " from Boxes\nR2 = join R0 and R1");
        break;
    }
  }
  return scripts;
}

struct RunResult {
  double qps = 0;
  double mean_us = 0;
  double p99_us = 0;
  double q1_qps = 0;  ///< set on a median run: the runs' quartiles
  double q3_qps = 0;
};

/// `total_queries` spread over one client thread (= session) per worker,
/// each executing synchronously; returns wall-clock throughput.
RunResult RunWorkload(Database* base, size_t workers,
                      const std::vector<std::string>& scripts,
                      size_t total_queries) {
  service::ServiceOptions options;
  options.num_workers = workers;
  options.max_queue_depth = 2 * workers + 8;
  service::QueryService service(base, options);

  const size_t clients = workers;
  const size_t per_client = total_queries / clients;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::SessionId id = service.OpenSession();
      for (size_t q = 0; q < per_client; ++q) {
        auto response =
            service.Execute(id, scripts[(c * 5 + q) % scripts.size()]);
        if (!response.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       response.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  service::ServiceMetrics m = service.Metrics();
  RunResult out;
  out.qps = static_cast<double>(per_client * clients) / seconds;
  out.mean_us = m.latency_mean_us;
  out.p99_us = m.latency_p99_us;
  return out;
}

/// The median-throughput run of `kRepetitions` calls of `run`, carrying
/// the quartiles of all runs' throughput.
template <typename Run>
RunResult MedianRun(Run run) {
  std::vector<RunResult> runs;
  std::vector<double> qps;
  for (size_t i = 0; i < kRepetitions; ++i) {
    runs.push_back(run());
    qps.push_back(runs.back().qps);
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) { return a.qps < b.qps; });
  RunResult median = runs[runs.size() / 2];
  median.q1_qps = Quantile(qps, 0.25);
  median.q3_qps = Quantile(qps, 0.75);
  return median;
}

/// One session executes `queries` scripts back to back, each waiting for
/// the previous reply; returns process CPU microseconds per query, all
/// threads included.
double ClosedLoopCpuUs(Database* base, size_t workers,
                       const std::vector<std::string>& scripts,
                       size_t queries) {
  service::ServiceOptions options;
  options.num_workers = workers;
  service::QueryService service(base, options);
  service::SessionId id = service.OpenSession();
  const double start = ProcessCpuSeconds();
  for (size_t q = 0; q < queries; ++q) {
    auto response = service.Execute(id, scripts[q % scripts.size()]);
    if (!response.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   response.status().ToString().c_str());
    }
  }
  return (ProcessCpuSeconds() - start) * 1e6 / static_cast<double>(queries);
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) {
  using namespace ccdb;        // NOLINT: benchmark brevity
  using namespace ccdb::bench;  // NOLINT
  ParseBenchFlags(argc, argv);

  WorkloadParams params;
  params.data_count = 300;
  Database base;
  Status created = base.Create(
      "Boxes", BoxesToConstraintRelation(GenerateDataBoxes(7, params)));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.ToString().c_str());
    return 1;
  }

  const std::vector<std::string> scripts = bench::MakeScripts(64);
  const size_t kTotalQueries = 960;

  if (!JsonOutputEnabled()) {
    std::printf("Query service throughput — %zu queries, %zu distinct "
                "scripts, 300 data boxes\n",
                kTotalQueries, scripts.size());
  }

  // One unmeasured run, so the first row does not pay the process's cold
  // start (page faults, allocator growth).
  RunWorkload(&base, /*workers=*/4, scripts, kTotalQueries);

  // 1. Worker scaling.
  double qps_1w = 0;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    RunResult r = MedianRun(
        [&] { return RunWorkload(&base, workers, scripts, kTotalQueries); });
    if (workers == 1) qps_1w = r.qps;
    const std::string name = "throughput_w" + std::to_string(workers);
    EmitResult(kBench, name.c_str(), r.qps, "qps",
               {{"workers", static_cast<double>(workers)},
                {"speedup_vs_1w", qps_1w > 0 ? r.qps / qps_1w : 1.0},
                {"q1_qps", r.q1_qps},
                {"q3_qps", r.q3_qps},
                {"mean_latency_us", r.mean_us},
                {"p99_latency_us", r.p99_us}});
  }

  // 2. One closed-loop session: the process CPU a query costs when every
  // query waits for the previous reply. The 1- and 4-worker runs
  // alternate, so both see the same host state.
  const size_t kClosedLoopQueries = 1000;
  const size_t kClosedLoopWorkers[] = {1, 4};
  std::vector<double> cpu_us[2];
  for (size_t i = 0; i < kRepetitions; ++i) {
    for (size_t k = 0; k < 2; ++k) {
      const size_t slot = (i + k) % 2;
      cpu_us[slot].push_back(ClosedLoopCpuUs(
          &base, kClosedLoopWorkers[slot], scripts, kClosedLoopQueries));
    }
  }
  for (size_t slot = 0; slot < 2; ++slot) {
    const size_t workers = kClosedLoopWorkers[slot];
    const std::string name =
        "closed_loop_w" + std::to_string(workers) + "_cpu";
    EmitResult(kBench, name.c_str(), Quantile(cpu_us[slot], 0.5), "us/query",
               {{"workers", static_cast<double>(workers)},
                {"queries", static_cast<double>(kClosedLoopQueries)},
                {"q1_us", Quantile(cpu_us[slot], 0.25)},
                {"q3_us", Quantile(cpu_us[slot], 0.75)}});
  }
  return 0;
}
