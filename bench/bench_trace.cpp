// Overhead of query tracing.
//
// Runs the paper's experiment-2 style join workload (selections on x and y
// over the §5.4 box data, then a natural join) through the plan executor in
// three observability modes:
//   off           plain Execute — no counter scope, no spans;
//   counters      an obs::CounterScope active (the per-query trace context
//                 every service query pays), untraced execution;
//   full_spans    ExecuteTraced — per-operator TraceNode tree with wall
//                 times, tuple flow, and counter deltas.
// The interesting numbers are the counters/full overhead percentages vs
// off: the design target is full-span overhead under 5%. Overheads come
// from MeasureModes (bench_common.h): the median of per-round ratios to
// off over many short rounds that run every mode back to back.
//
// With --json each result is one machine-readable line (see
// bench_common.h), recorded in CI as the BENCH_* trajectory.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_trace";

/// One compiled+optimized experiment-2 join query: boxes overlapping an
/// x-band joined with boxes overlapping a y-band.
Result<std::unique_ptr<cqa::PlanNode>> MakeJoinPlan(const Database& db,
                                                    int x_lo, int y_lo) {
  const std::string script =
      "R0 = select x >= " + std::to_string(x_lo) + ", x <= " +
      std::to_string(x_lo + 250) + " from Boxes\n" +
      "R1 = select y >= " + std::to_string(y_lo) + ", y <= " +
      std::to_string(y_lo + 250) + " from Boxes\n" +
      "R2 = join R0 and R1";
  CCDB_ASSIGN_OR_RETURN(lang::CompiledScript compiled,
                        lang::CompileScript(script, db));
  return cqa::Optimize(std::move(compiled.plan), db);
}

enum class Mode { kOff, kCounters, kFullSpans };

/// Total wall seconds to execute every plan `passes` times in the given
/// mode.
double RunMode(const std::vector<std::unique_ptr<cqa::PlanNode>>& plans,
               const Database& db, Mode mode, int passes) {
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& plan : plans) {
      Result<Relation> out = Status::OK();
      switch (mode) {
        case Mode::kOff:
          out = cqa::Execute(*plan, db);
          break;
        case Mode::kCounters: {
          obs::CounterScope scope;
          out = cqa::Execute(*plan, db);
          break;
        }
        case Mode::kFullSpans: {
          obs::TraceNode root;
          out = cqa::ExecuteTraced(*plan, db, &root);
          break;
        }
      }
      if (!out.ok()) {
        std::fprintf(stderr, "execution failed: %s\n",
                     out.status().ToString().c_str());
      }
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) {
  using namespace ccdb;         // NOLINT: benchmark brevity
  using namespace ccdb::bench;  // NOLINT
  ParseBenchFlags(argc, argv);

  WorkloadParams params;
  params.data_count = 250;
  Database db;
  Status created = db.Create(
      "Boxes", BoxesToConstraintRelation(GenerateDataBoxes(7, params)));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.ToString().c_str());
    return 1;
  }

  constexpr size_t kQueries = 12;
  std::vector<std::unique_ptr<cqa::PlanNode>> plans;
  for (size_t i = 0; i < kQueries; ++i) {
    const int x_lo = static_cast<int>((i * 157) % 2400);
    const int y_lo = static_cast<int>((i * 311 + 500) % 2400);
    auto plan = MakeJoinPlan(db, x_lo, y_lo);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      return 1;
    }
    plans.push_back(std::move(plan).value());
  }

  if (!JsonOutputEnabled()) {
    std::printf("Tracing overhead — %zu experiment-2 join queries over %zu "
                "data boxes\n",
                kQueries, params.data_count);
  }
  MeasureModes(kBench, {"trace_off", "trace_counters_only", "trace_full_spans"},
               kQueries, [&](size_t mode, int passes) {
                 return RunMode(plans, db, static_cast<Mode>(mode), passes);
               });
  return 0;
}
