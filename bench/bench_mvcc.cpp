// Reader latency under the MVCC catalog: writer-idle vs writer-storm.
//
// The point of the copy-on-write snapshot catalog is that readers pin a
// snapshot at submission and never block behind catalog writers. This
// bench measures read-query latency (client-observed, p50/p99) at
// 1/2/4/8 concurrent readers, first with the catalog quiescent and then
// under a paced writer committing BEGIN/COMMIT transactions that replace
// the very relation the readers scan. The acceptance bar: storm p99
// within 1.5x of the idle baseline at every reader count, read as the
// median of kRuns per-run storm/idle ratios. One run's p99 is noise
// (single-run ratios of one unchanged tree ranged 0.32-1.91), so each
// reader count runs its idle and storm configurations kRuns times,
// alternating which goes first, and every row reports the median p99
// with its quartiles.
//
// The writer is paced (~2 ms between commits) because CI runs
// single-core: an unpaced writer would measure CPU starvation, not lock
// contention. Replacement relations are generated up front for the same
// reason.
//
// With --json each result is one machine-readable line (see
// bench_common.h), recorded in CI as the BENCH_mvcc.json trajectory.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_mvcc";
constexpr size_t kRuns = 5;

/// Distinct read-only scripts over the shared "Boxes" relation.
std::vector<std::string> MakeScripts(size_t count) {
  std::vector<std::string> scripts;
  for (size_t i = 0; i < count; ++i) {
    const int lo = static_cast<int>((i * 157) % 2400);
    if (i % 2 == 0) {
      scripts.push_back("R0 = select x >= " + std::to_string(lo) +
                        ", x <= " + std::to_string(lo + 400) +
                        " from Boxes\nR1 = project R0 on y");
    } else {
      scripts.push_back("R0 = select y >= " + std::to_string(lo) +
                        ", y <= " + std::to_string(lo + 300) +
                        " from Boxes");
    }
  }
  return scripts;
}

struct LatencyResult {
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double commits = 0;  ///< writer transactions committed during the run
};

double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(samples->size() - 1) + 0.5);
  return (*samples)[std::min(idx, samples->size() - 1)];
}

/// Runs `per_reader` queries on each of `readers` sessions; when
/// `storm` is set, a paced writer concurrently commits one-statement
/// transactions replacing "Boxes" for the whole duration.
LatencyResult RunReaders(Database* base, size_t readers, bool storm,
                         const std::vector<std::string>& scripts,
                         const std::vector<Relation>& replacements,
                         size_t per_reader) {
  service::ServiceOptions options;
  options.num_workers = readers;
  options.max_queue_depth = 2 * readers + 8;
  service::QueryService service(base, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::thread writer;
  if (storm) {
    writer = std::thread([&] {
      const service::SessionId id = service.OpenSession();
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Status s = service.Begin(id);
        if (s.ok()) {
          s = service.ReplaceRelation(id, "Boxes",
                                      replacements[i % replacements.size()]);
        }
        if (s.ok()) s = service.Commit(id);
        if (s.ok()) {
          ++i;
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          IgnoreError(service.Rollback(id));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      IgnoreError(service.CloseSession(id));
    });
  }

  std::mutex samples_mu;
  std::vector<double> samples;
  samples.reserve(readers * per_reader);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      const service::SessionId id = service.OpenSession();
      std::vector<double> local;
      local.reserve(per_reader);
      for (size_t q = 0; q < per_reader; ++q) {
        const auto start = std::chrono::steady_clock::now();
        auto response =
            service.Execute(id, scripts[(r * 7 + q) % scripts.size()]);
        const auto end = std::chrono::steady_clock::now();
        if (!response.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       response.status().ToString().c_str());
          continue;
        }
        local.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
      }
      IgnoreError(service.CloseSession(id));
      std::lock_guard<std::mutex> lock(samples_mu);
      samples.insert(samples.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  if (writer.joinable()) writer.join();

  LatencyResult out;
  out.commits = static_cast<double>(commits.load());
  out.p50_us = Percentile(&samples, 0.50);
  out.p99_us = Percentile(&samples, 0.99);
  double sum = 0;
  for (double s : samples) sum += s;
  out.mean_us = samples.empty() ? 0 : sum / static_cast<double>(samples.size());
  return out;
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) {
  using namespace ccdb;         // NOLINT: benchmark brevity
  using namespace ccdb::bench;  // NOLINT
  ParseBenchFlags(argc, argv);

  WorkloadParams params;
  params.data_count = 200;
  Database base;
  Status created = base.Create(
      "Boxes", BoxesToConstraintRelation(GenerateDataBoxes(7, params)));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.ToString().c_str());
    return 1;
  }

  // Same-size replacements, pre-generated so the single-core writer
  // spends its time committing, not generating data.
  std::vector<Relation> replacements;
  for (uint64_t seed = 11; seed < 19; ++seed) {
    replacements.push_back(
        BoxesToConstraintRelation(GenerateDataBoxes(seed, params)));
  }

  const std::vector<std::string> scripts = bench::MakeScripts(32);
  // Enough queries that every storm run spans 50 or more writer commits
  // (1,000 gave a 1-reader run of ~70 us queries only 31), and that even
  // the 1-reader p99 has 10 samples beyond it.
  const size_t kPerReader = 3000;

  if (!JsonOutputEnabled()) {
    std::printf("MVCC reader latency — %zu queries/reader, 200 data boxes, "
                "paced writer storm, medians of %zu runs\n",
                kPerReader, kRuns);
  }

  for (size_t readers : {1u, 2u, 4u, 8u}) {
    // runs[0] idle, runs[1] storm.
    std::vector<LatencyResult> runs[2];
    std::vector<double> ratios;
    for (size_t i = 0; i < kRuns; ++i) {
      for (size_t k = 0; k < 2; ++k) {
        const size_t storm = (i + k) % 2;
        runs[storm].push_back(RunReaders(&base, readers, storm == 1, scripts,
                                         replacements, kPerReader));
      }
      const double idle_p99 = runs[0].back().p99_us;
      ratios.push_back(idle_p99 > 0 ? runs[1].back().p99_us / idle_p99 : 0);
    }
    for (size_t storm = 0; storm < 2; ++storm) {
      // Quantile `q` of one field over this configuration's runs.
      auto quantile = [&](double LatencyResult::*field, double q) {
        std::vector<double> values;
        for (const LatencyResult& run : runs[storm]) {
          values.push_back(run.*field);
        }
        return Quantile(values, q);
      };
      std::vector<BenchParam> params = {
          {"readers", static_cast<double>(readers)},
          {"runs", static_cast<double>(kRuns)},
          {"q1_us", quantile(&LatencyResult::p99_us, 0.25)},
          {"q3_us", quantile(&LatencyResult::p99_us, 0.75)},
          {"p50_us", quantile(&LatencyResult::p50_us, 0.5)},
          {"mean_us", quantile(&LatencyResult::mean_us, 0.5)}};
      if (storm == 1) {
        params.push_back(
            {"writer_commits", quantile(&LatencyResult::commits, 0.5)});
        params.push_back({"p99_vs_idle", Quantile(ratios, 0.5)});
      }
      const std::string name = "reader_p99_r" + std::to_string(readers) +
                               (storm == 1 ? "_storm" : "_idle");
      EmitResult(kBench, name.c_str(), quantile(&LatencyResult::p99_us, 0.5),
                 "us", params);
    }
  }
  return 0;
}
