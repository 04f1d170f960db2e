// perfbench: the CCDB served-workload benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--ops N]
//
// Per run: generate the seeded inputs, then in each round start an
// in-process leader, load the shared catalog over the wire (timed as the
// set-up), and send the round's operations over one connection, closed
// loop, checking every reply against the oracle. With --trace 1 a further
// leader serves a prefix of the first round's operations, and each one is
// replayed in-process layer by layer after its reply.
//
// The run size follows from --seconds (see SizeFor); --ops N instead makes
// one round of N operations (the self-check uses it), with the traced
// run's commit tail in the workloads that have no commits of their own.
// The run record's git describe comes from PERFBENCH_GIT_DESCRIBE, which
// run.py sets from the checkout. Prints one run record line, then the
// result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "obs/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr size_t kTracedTailCommits = 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::optional<size_t> ops;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
      continue;
    }
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') return false;
    if (flag == "--seed") {
      args->seed = n;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (n > 1) return false;
      args->trace = n == 1;
    } else if (flag == "--ops") {
      args->ops = n;
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return argc % 2 == 1 && have_workload &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  return "\"" + ccdb::obs::JsonEscape(s) + "\"";
}

/// Adds a pass's measurements to `into`.
void Accumulate(const Phase& from, Phase* into) {
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  append(&into->read_cpu_ms, from.read_cpu_ms);
  append(&into->read_wall_ms, from.read_wall_ms);
  append(&into->commit_cpu_ms, from.commit_cpu_ms);
  // The pooled steal share is the CPU-weighted mean of the passes'.
  const double cpu_s = into->cpu_s + from.cpu_s;
  if (cpu_s > 0) {
    into->steal_share = (into->steal_share * into->cpu_s +
                         from.steal_share * from.cpu_s) /
                        cpu_s;
  }
  into->cpu_s = cpu_s;
  into->attempted += from.attempted;
  into->errors += from.errors;
  into->mismatches += from.mismatches;
  into->cache_hits += from.cache_hits;
  into->commits += from.commits;
  into->wal_bytes += from.wal_bytes;
  into->cache_lookups += from.cache_lookups;
  into->service_cache_hits += from.service_cache_hits;
  if (into->first_failure.empty()) into->first_failure = from.first_failure;
}

/// Every round's passes, pooled.
struct Pooled {
  std::vector<double> setup_s;
  Phase ops;   ///< the workload's own operations
  Phase tail;  ///< the trailing commits
};

/// The end-to-end metrics of the untraced rounds.
MetricSet EndToEnd(const Pooled& run) {
  const Phase& ops = run.ops;
  MetricSet m;
  m.Set("setup_s", Median(run.setup_s), "s");
  m.SetIf("read_cpu_ms_p50", Percentile(ops.read_cpu_ms, 0.50), "ms");
  m.SetIf("read_cpu_ms_p99", Percentile(ops.read_cpu_ms, 0.99), "ms");
  std::vector<double> commits = ops.commit_cpu_ms;
  commits.insert(commits.end(), run.tail.commit_cpu_ms.begin(),
                 run.tail.commit_cpu_ms.end());
  m.SetIf("commit_cpu_ms_p50", Percentile(commits, 0.50), "ms");
  m.SetIf("commit_cpu_ms_p90", Percentile(commits, 0.90), "ms");
  m.Set("cpu_ms_per_op",
        ops.cpu_s * 1e3 /
            static_cast<double>(std::max<size_t>(1, ops.attempted)),
        "ms");
  if (!commits.empty()) {
    m.Set("wal_kb_per_commit",
          static_cast<double>(ops.wal_bytes + run.tail.wal_bytes) / 1024 /
              static_cast<double>(commits.size()),
          "KB");
  }
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  return m;
}

/// The traced run: a fresh leader serves a prefix of the first round, and
/// each operation is replayed layer by layer after its reply. `traced`
/// gets the traced passes' own measurements.
ccdb::Status TracedRun(const Inputs& inputs, const Pooled& untraced,
                       size_t traced_ops, MetricSet* layers, Phase* traced,
                       std::string* uncovered_shape) {
  const Round& first = inputs.rounds.front();
  const std::vector<Op> prefix(first.ops.begin(),
                               first.ops.begin() + traced_ops);
  const std::vector<Op> tail(
      first.tail.begin(),
      first.tail.begin() + std::min(first.tail.size(), kTracedTailCommits));
  CCDB_ASSIGN_OR_RETURN(std::unique_ptr<Leader> leader,
                        StartLeader(inputs.catalog));
  Tracer tracer(inputs.catalog);
  const AfterOp replay = [&tracer](const Op& op, const OpOutcome& out) {
    tracer.Replay(op, out);
  };
  Accumulate(RunPhase(leader.get(), prefix, replay), traced);
  Accumulate(RunPhase(leader.get(), tail, replay), traced);
  leader.reset();
  tracer.Report(layers);

  // Tracing overhead: traced against untraced reads of the same prefix.
  const auto prefix_reads = static_cast<size_t>(
      std::count_if(prefix.begin(), prefix.end(),
                    [](const Op& op) { return op.kind == OpKind::kRead; }));
  const std::vector<double>& reads = untraced.ops.read_cpu_ms;
  const std::optional<double> before = Percentile(
      {reads.begin(), reads.begin() + std::min(prefix_reads, reads.size())},
      0.50);
  const std::optional<double> after = Percentile(traced->read_cpu_ms, 0.50);
  if (before && after) {
    layers->Set("trace.overhead_pct", 100 * (*after - *before) / *before, "%");
  }
  layers->SetIf("net.round_trip_ms_p50",
                Percentile(untraced.ops.read_wall_ms, 0.50), "ms");
  layers->SetIf("net.round_trip_ms_p99",
                Percentile(untraced.ops.read_wall_ms, 0.99), "ms");
  layers->Set("service.cache_hit_ratio",
              untraced.ops.cache_lookups == 0
                  ? 0.0
                  : static_cast<double>(untraced.ops.service_cache_hits) /
                        static_cast<double>(untraced.ops.cache_lookups),
              "ratio");
  AddPaperPins(layers);
  *uncovered_shape = tracer.largest_uncovered_shape();
  // A replay the oracle rejects is a wrong answer from that layer.
  traced->mismatches += tracer.replay_failures();
  if (traced->first_failure.empty()) {
    traced->first_failure = tracer.first_replay_failure();
  }
  return ccdb::Status::OK();
}

int Run(const Args& args) {
  RunSize size = SizeFor(args.workload, args.seconds);
  if (args.ops) {
    size.rounds = 1;
    size.ops_per_round = *args.ops;
    size.tail_per_round =
        HasOwnCommits(args.workload) ? 0 : kTracedTailCommits;
  }
  ccdb::Result<Inputs> inputs = MakeInputs(args.workload, args.seed, size);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }

  Pooled run;
  for (const Round& round : inputs->rounds) {
    // Hand the previous round's freed pages back to the OS. Otherwise they
    // stay in whichever malloc arenas its server threads used, and the
    // peak RSS depends on which arenas this round's threads get.
    malloc_trim(0);
    const double cpu0 = ProcessCpuSeconds();
    ccdb::Result<std::unique_ptr<Leader>> leader = StartLeader(inputs->catalog);
    if (!leader.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n",
                   leader.status().ToString().c_str());
      return 1;
    }
    run.setup_s.push_back(ProcessCpuSeconds() - cpu0);
    Accumulate(RunPhase(leader->get(), round.ops), &run.ops);
    Accumulate(RunPhase(leader->get(), round.tail), &run.tail);
  }
  const MetricSet end_to_end = EndToEnd(run);

  MetricSet layers;
  Phase traced;
  std::string uncovered_shape;
  size_t traced_ops = 0;
  if (args.trace) {
    // An eighth of the run, in whole cycles of the shares, so that a
    // traced run costs about twice an untraced one.
    traced_ops = std::min(size.ops_per_round,
                          std::max<size_t>(36, size.rounds *
                                                   size.ops_per_round / 8 /
                                                   12 * 12));
    const ccdb::Status status = TracedRun(*inputs, run, traced_ops, &layers,
                                          &traced, &uncovered_shape);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: traced run: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  Phase all;
  for (const Phase* p : {&run.ops, &run.tail, &traced}) Accumulate(*p, &all);
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  if (describe == nullptr || *describe == '\0') describe = "unknown";
  std::string record =
      "{\"record\": {\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"rounds\": " + std::to_string(size.rounds) +
      ", \"ops_per_round\": " + std::to_string(size.ops_per_round) +
      ", \"tail_per_round\": " + std::to_string(size.tail_per_round) +
      ", \"traced_ops\": " + std::to_string(traced_ops);
  record += ", \"context\": {\"nproc\": " +
            std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
            ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
            ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
            ", \"git_describe\": " + JsonString(describe) +
            ", \"seed\": " + std::to_string(args.seed) +
            ", \"cpu_steal_share\": " + JsonNumber(run.ops.steal_share) + "}";
  record += ", \"failures\": {\"errors\": " + std::to_string(all.errors) +
            ", \"mismatches\": " + std::to_string(all.mismatches) +
            ", \"cache_hits\": " + std::to_string(all.cache_hits) +
            ", \"first\": " + JsonString(all.first_failure) + "}";
  record += ", \"samples\": {\"reads\": " +
            std::to_string(run.ops.read_cpu_ms.size()) + ", \"commits\": " +
            std::to_string(run.ops.commits + run.tail.commits) + "}";
  // Wall time is kept for context only: it moves with host steal.
  record += ", \"read_wall_ms_p50\": " +
            JsonNumber(Percentile(run.ops.read_wall_ms, 0.50).value_or(0));
  record += ", \"end_to_end\": " + end_to_end.ToJson();
  if (args.trace) {
    record += ", \"per_layer\": " + layers.ToJson() +
              ", \"largest_uncovered_shape\": " + JsonString(uncovered_shape);
  }
  record += "}}";
  std::printf("%s\n", record.c_str());

  const MetricSet& reported = args.trace ? layers : end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              all.failed() == 0 ? "true" : "false", all.attempted,
              all.failed(), reported.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload range_select|hurricane_join|"
                 "ingest_mix --seed N --seconds S --trace 0|1 [--ops N]\n");
    return 2;
  }
  return perfbench::Run(args);
}
