// Overhead and trip latency of resource governance.
//
// Runs the paper's experiment-2 style join workload (selections on x and y
// over the §5.4 box data, then a natural join) through the plan executor in
// two modes:
//   off   plain Execute — no ExecContext installed (an ungoverned thread);
//   on    an ExecContext with generous, never-tripping limits installed —
//         the per-charge/per-check price every governed query pays.
// The design target is governed overhead under 3% on this workload. The
// overhead comes from MeasureModes (bench_common.h): the median of
// per-round ratios to off over many short rounds that run both modes
// back to back.
//
// It also measures *trip latency*: an adversarial Fourier–Motzkin
// explosion query (an unselective self-join over stores that all share a
// point, so the join's box test prunes nothing, and that each carry a
// diagonal member, so no store is a box and FM refines every pair) armed
// with a 50 ms deadline, reporting how far past the deadline the typed
// kDeadlineExceeded actually lands.
//
// With --stress N the harness instead first runs the explosion query once
// under 10x the deadline and fails unless that run trips too and does FM
// eliminations (the query must stay adversarial as the engine gets
// faster), then runs it N times under the 50 ms deadline and exits
// non-zero if any run fails to trip with kDeadlineExceeded or takes more
// than twice the deadline — the adversarial loop behind
// tools/stress_governance.sh.
//
// With --json each result is one machine-readable line (see
// bench_common.h), recorded in CI as the BENCH_* trajectory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/governance.h"

namespace ccdb::bench {
namespace {

constexpr const char* kBench = "bench_governance";
constexpr double kDeadlineUs = 50'000;  // the stress-mode wall budget

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

/// Stores that all contain the point (2000, 1000): boxes with corners in
/// [1000, 2000] and extents in [1000, 2000], each cut by one diagonal
/// member x + y <= 3000 + d, d in [0, 500]. Every pair overlaps, so no box
/// test can spare FM a pair, and no store is a box, so every refine is FM.
Relation OverlappingStores(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.coord_min = 1000;
  params.coord_max = 2000;
  params.extent_min = 1000;
  params.extent_max = 2000;
  params.data_count = count;
  const Relation boxes =
      BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
  Rng rng(seed);
  Relation out(boxes.schema());
  for (Tuple tuple : boxes.tuples()) {
    tuple.AddConstraint(Constraint::Le(
        LinearExpr::Variable("x") + LinearExpr::Variable("y"),
        LinearExpr::Constant(Rational(3000 + rng.UniformInt(0, 500)))));
    // A box's tuple plus one member over the same schema always inserts.
    IgnoreError(out.Insert(std::move(tuple)));
  }
  return out;
}

/// The adversarial query: unselective bands over stores that pairwise
/// overlap, so the join must refine every store with every store by FM —
/// quadratic constraint explosion.
Result<std::unique_ptr<cqa::PlanNode>> MakeExplosionPlan(const Database& db) {
  const std::string script =
      "R0 = select x >= 0, x <= 3000 from Overlapping\n"
      "R1 = select y >= 0, y <= 3000 from Overlapping\n"
      "R2 = join R0 and R1";
  CCDB_ASSIGN_OR_RETURN(lang::CompiledScript compiled,
                        lang::CompileScript(script, db));
  return cqa::Optimize(std::move(compiled.plan), db);
}

/// Total wall seconds to execute every plan `passes` times, optionally
/// governed.
double RunPlans(const std::vector<std::unique_ptr<cqa::PlanNode>>& plans,
                const Database& db, bool governed, int passes) {
  // Generous limits: every charge and strided check is paid, nothing
  // ever trips — this isolates the bookkeeping cost.
  obs::GovernanceLimits limits;
  limits.deadline_us = 3600e6;
  limits.max_tuples = ~0ull >> 1;
  limits.max_constraints = ~0ull >> 1;
  limits.max_memory_bytes = ~0ull >> 1;

  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& plan : plans) {
      Result<Relation> out = Status::OK();
      if (governed) {
        obs::ExecContext ctx(limits, std::chrono::steady_clock::now());
        obs::ExecContextScope scope(&ctx);
        out = cqa::Execute(*plan, db);
      } else {
        out = cqa::Execute(*plan, db);
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

/// One deadline-armed explosion run; returns elapsed milliseconds and
/// whether it tripped with exactly kDeadlineExceeded.
struct TripRun {
  double elapsed_ms = 0;
  bool typed_trip = false;
};

TripRun RunExplosionOnce(const cqa::PlanNode& plan, const Database& db,
                         double deadline_us = kDeadlineUs) {
  obs::GovernanceLimits limits;
  limits.deadline_us = deadline_us;
  const auto start = std::chrono::steady_clock::now();
  obs::ExecContext ctx(limits, start);
  Result<Relation> out = Status::OK();
  {
    obs::ExecContextScope scope(&ctx);
    out = cqa::Execute(plan, db);
  }
  TripRun run;
  run.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  run.typed_trip =
      !out.ok() && out.status().code() == StatusCode::kDeadlineExceeded;
  return run;
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) {
  using namespace ccdb;         // NOLINT: benchmark brevity
  using namespace ccdb::bench;  // NOLINT
  ParseBenchFlags(argc, argv);
  int stress_runs = 0;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--stress") == 0) {
      stress_runs = std::atoi(argv[i + 1]);
    }
  }

  WorkloadParams params;
  params.data_count = 250;
  Database db;
  Status created = db.Create(
      "Boxes", BoxesToConstraintRelation(GenerateDataBoxes(7, params)));
  if (created.ok()) {
    // Sized so that the unguarded explosion runs at least twice the
    // calibration's 500 ms: 1.3 s at 600 stores (RelWithDebInfo, 4 vCPU),
    // growing quadratically with the count.
    created = db.Create("Overlapping", OverlappingStores(600, 7));
  }
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.ToString().c_str());
    return 1;
  }

  auto explosion = MakeExplosionPlan(db);
  if (!explosion.ok()) {
    std::fprintf(stderr, "%s\n", explosion.status().ToString().c_str());
    return 1;
  }

  if (stress_runs > 0) {
    // The explosion must still be running FM at 10x the deadline;
    // otherwise the trips below would not show governance at work.
    TripRun calibration;
    uint64_t calibration_eliminations = 0;
    {
      obs::CounterScope counters;
      calibration = RunExplosionOnce(**explosion, db, 10 * kDeadlineUs);
      calibration_eliminations = counters.counters().fm_eliminations;
    }
    if (!calibration.typed_trip || calibration_eliminations == 0) {
      std::fprintf(stderr,
                   "stress calibration: the explosion query must trip a "
                   "%.0f ms deadline doing FM eliminations, but it %s "
                   "after %.1f ms with %llu eliminations; it is no longer "
                   "adversarial\n",
                   10 * kDeadlineUs / 1000.0,
                   calibration.typed_trip ? "tripped" : "did not trip",
                   calibration.elapsed_ms,
                   static_cast<unsigned long long>(calibration_eliminations));
      return 1;
    }
    // Adversarial mode: the explosion must trip with the typed status and
    // within 2x the deadline, every single time.
    const double bound_ms = 2.0 * kDeadlineUs / 1000.0;
    double worst_ms = 0;
    for (int i = 0; i < stress_runs; ++i) {
      TripRun run = RunExplosionOnce(**explosion, db);
      // The first trip runs cold (fresh allocator arenas, caches), so it
      // is reported apart from the worst.
      if (i == 0) std::printf("stress first trip: %.1f ms\n", run.elapsed_ms);
      if (run.elapsed_ms > worst_ms) worst_ms = run.elapsed_ms;
      if (!run.typed_trip) {
        std::fprintf(stderr,
                     "stress run %d: expected kDeadlineExceeded, query "
                     "finished or failed otherwise (%.1f ms)\n",
                     i, run.elapsed_ms);
        return 1;
      }
      if (run.elapsed_ms > bound_ms) {
        std::fprintf(stderr,
                     "stress run %d: trip took %.1f ms (> %.0f ms bound)\n",
                     i, run.elapsed_ms, bound_ms);
        return 1;
      }
    }
    std::printf("stress ok: the 10x-deadline run tripped at %.1f ms; %d "
                "runs tripped kDeadlineExceeded, worst %.1f ms (bound "
                "%.0f ms)\n",
                calibration.elapsed_ms, stress_runs, worst_ms, bound_ms);
    return 0;
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
    std::printf("Governance overhead — %zu experiment-2 join queries over "
                "%zu data boxes\n",
                kQueries, params.data_count);
  }
  MeasureModes(kBench, {"governance_off", "governance_on"}, kQueries,
               [&](size_t mode, int passes) {
                 return RunPlans(plans, db, /*governed=*/mode == 1, passes);
               });

  // Trip latency: median-of-5 overshoot past the 50 ms deadline.
  std::vector<double> trips;
  for (int i = 0; i < 5; ++i) {
    TripRun run = RunExplosionOnce(**explosion, db);
    if (!run.typed_trip) {
      std::fprintf(stderr, "explosion run %d did not trip the deadline\n", i);
      return 1;
    }
    trips.push_back(run.elapsed_ms);
  }
  std::sort(trips.begin(), trips.end());
  EmitResult(kBench, "deadline_trip_ms", trips[trips.size() / 2], "ms",
             {{"deadline_ms", kDeadlineUs / 1000.0},
              {"overshoot_ms", trips[trips.size() / 2] - kDeadlineUs / 1000.0}});
  return 0;
}
