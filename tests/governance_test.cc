// Resource-governance tests: ExecContext mechanics, typed trips
// (deadline / budget / cancellation), partial results, admission control,
// and the service-level Cancel path.
//
// The cancellation matrix mirrors the WAL crash matrix: instead of
// crashing the pager at the Nth write, it cancels the query at the Nth
// governance check and asserts the engine unwinds cleanly every time —
// a typed status out, no crash, and a service that keeps serving.

#include "obs/governance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "constraint/fourier_motzkin.h"
#include "core/operators.h"
#include "core/plan.h"
#include "data/workload.h"
#include "lang/compile.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "service/query_service.h"

namespace ccdb {
namespace {

using obs::CancelFlag;
using obs::ExecContext;
using obs::ExecContextScope;
using obs::GovernanceLimits;
using obs::TripKind;
using std::chrono::steady_clock;

Relation BoxRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

/// Stores that all contain the point (2000, 1000): boxes with corners in
/// [1000, 2000] and extents in [1000, 2000], each cut by one diagonal
/// member x + y <= 3000 + d, d in [0, 500]. Every pair overlaps, so a join
/// over them cannot be pruned by a box test, and no store is a box, so FM
/// refines every pair.
Relation OverlappingStoreRelation(size_t count, uint64_t seed) {
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
    EXPECT_TRUE(out.Insert(std::move(tuple)).ok());
  }
  return out;
}

// --- ExecContext unit mechanics (no service, no threads) ---

TEST(ExecContextTest, UngovernedThreadIsFree) {
  EXPECT_EQ(obs::ActiveExecContext(), nullptr);
  EXPECT_TRUE(obs::CheckGovernance().ok());
  EXPECT_FALSE(obs::GovernanceAborting());
  EXPECT_FALSE(obs::GovernanceTruncating());
  obs::GovernTuples(10);  // no-ops, must not crash
  obs::GovernBytes(1 << 20);
}

TEST(ExecContextTest, ScopeInstallsAndRestores) {
  GovernanceLimits limits;
  ExecContext ctx(limits, steady_clock::now());
  {
    ExecContextScope scope(&ctx);
    EXPECT_EQ(obs::ActiveExecContext(), &ctx);
    obs::GovernTuples(3);
    EXPECT_EQ(ctx.tuples(), 3u);
  }
  EXPECT_EQ(obs::ActiveExecContext(), nullptr);
}

TEST(ExecContextTest, ExpiredDeadlineTripsWithTypedStatus) {
  GovernanceLimits limits;
  limits.deadline_us = 1000;  // 1 ms, already over when we check
  ExecContext ctx(limits,
                  steady_clock::now() - std::chrono::milliseconds(5));
  ctx.FullCheck();
  EXPECT_TRUE(ctx.aborting());
  EXPECT_EQ(ctx.trip_kind(), TripKind::kDeadline);
  EXPECT_EQ(ctx.trip_status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, TupleBudgetTripsImmediately) {
  GovernanceLimits limits;
  limits.max_tuples = 2;
  ExecContext ctx(limits, steady_clock::now());
  ctx.ChargeTuples(2);
  EXPECT_FALSE(ctx.tripped());
  ctx.ChargeTuples(1);
  EXPECT_TRUE(ctx.aborting());
  EXPECT_EQ(ctx.trip_kind(), TripKind::kBudget);
  EXPECT_TRUE(ctx.budget_tripped());
  EXPECT_EQ(ctx.trip_status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, AllowPartialTruncatesThenEscalatesToCancel) {
  GovernanceLimits limits;
  limits.max_constraints = 1;
  limits.allow_partial = true;
  auto cancel = std::make_shared<CancelFlag>(false);
  ExecContext ctx(limits, steady_clock::now(), cancel);

  ctx.ChargeConstraints(2);
  EXPECT_TRUE(ctx.truncating()) << "partial budgets truncate, not abort";
  EXPECT_FALSE(ctx.aborting());
  EXPECT_TRUE(ctx.budget_tripped());

  // Cancellation still aborts a truncating query; the budget trip stays
  // visible for the metrics layer.
  cancel->store(true);
  ctx.FullCheck();
  EXPECT_TRUE(ctx.aborting());
  EXPECT_EQ(ctx.trip_status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(ctx.budget_tripped());
}

TEST(ExecContextTest, StrideAmortizesFullChecks) {
  GovernanceLimits limits;
  limits.check_stride = 4;
  ExecContext ctx(limits, steady_clock::now());
  for (int i = 0; i < 8; ++i) ctx.ChargeTuples(1);
  EXPECT_EQ(ctx.checks(), 2u) << "8 charges / stride 4 = 2 full checks";
}

TEST(ExecContextTest, TripAtCheckInjectsCancellation) {
  GovernanceLimits limits;
  limits.trip_at_check = 3;
  limits.check_stride = 1;
  ExecContext ctx(limits, steady_clock::now());
  ctx.ChargeTuples(1);
  ctx.ChargeTuples(1);
  EXPECT_FALSE(ctx.tripped());
  ctx.ChargeTuples(1);
  EXPECT_TRUE(ctx.aborting());
  EXPECT_EQ(ctx.trip_status().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, OptimizeStopsRewritingOnceTripped) {
  Database db;
  ASSERT_TRUE(db.Create("Boxes", BoxRelation(5, 7)).ok());
  // Stacked selections: the optimizer's first pass would merge them.
  auto compiled = lang::CompileScript(
      "R0 = select x >= 0 from Boxes\nR1 = select y >= 0 from R0", db);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  ExecContext ctx(GovernanceLimits{}, steady_clock::now(),
                  std::make_shared<CancelFlag>(true));
  ExecContextScope scope(&ctx);
  std::unique_ptr<cqa::PlanNode> plan =
      cqa::Optimize(std::move(compiled->plan), db);
  ASSERT_EQ(plan->op, cqa::PlanNode::Op::kSelect);
  EXPECT_EQ(plan->children[0]->op, cqa::PlanNode::Op::kSelect)
      << "no rewrite pass runs once the query is cancelled";
  auto result = cqa::Execute(*plan, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// --- The box cache under governance ---

/// `count` stores over (x, y) whose exact x box needs FM: even ones are
/// x + y <= i, y >= i + 5 (so x <= -5), odd ones x + y <= i, x >= 0,
/// y >= 0.
Relation MultiVariableRelation(size_t count) {
  const LinearExpr x = LinearExpr::Variable("x");
  const LinearExpr y = LinearExpr::Variable("y");
  auto k = [](int64_t v) { return LinearExpr::Constant(Rational(v)); };
  Relation rel(Schema::Make({Schema::ConstraintRational("x"),
                             Schema::ConstraintRational("y")})
                   .value());
  for (int64_t i = 0; i < static_cast<int64_t>(count); ++i) {
    Tuple t;
    t.AddConstraint(Constraint::Le(x + y, k(i)));
    if (i % 2 == 0) {
      t.AddConstraint(Constraint::Ge(y, k(i + 5)));
    } else {
      t.AddConstraint(Constraint::Ge(x, k(0)));
      t.AddConstraint(Constraint::Ge(y, k(0)));
    }
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

TEST(GovernanceBoxCacheTest, TripInsideTheBuildPublishesNothing) {
  // FM bails with wrong values once a query aborts, so a box computed
  // after a trip must never reach the cache every later query reads.
  // Trip a governed Select at every check up to the end of its box
  // build, then rerun it ungoverned on the same relation: the rerun must
  // build the boxes itself, prune exactly the even stores and match
  // refining every tuple.
  constexpr size_t kTuples = 24;
  Predicate pred;
  pred.linear = {Constraint::Ge(LinearExpr::Variable("x"),
                                LinearExpr::Constant(Rational(0)))};
  std::vector<Tuple> reference;
  const Relation input = MultiVariableRelation(kTuples);
  for (const Tuple& t : input.tuples()) {
    Conjunction store = t.constraints();
    store.Add(pred.linear[0]);
    if (!fm::IsSatisfiable(store)) continue;
    Tuple kept = t;
    kept.SetConstraints(std::move(store));
    reference.push_back(std::move(kept));
  }
  ASSERT_EQ(reference.size(), kTuples / 2);

  // The full checks a complete build makes, one at every charge: the
  // Select's trips at checks 1..build_checks all land before the build
  // ends.
  GovernanceLimits limits;
  limits.check_stride = 1;
  uint64_t build_checks = 0;
  {
    const Relation fresh = MultiVariableRelation(kTuples);
    ExecContext ctx(limits, steady_clock::now());
    ExecContextScope scope(&ctx);
    ASSERT_TRUE(fresh.Boxes().ok());
    build_checks = ctx.checks();
  }
  ASSERT_GT(build_checks, 2 * kTuples) << "FM must charge inside the build";
  for (uint64_t n = 1; n <= build_checks; ++n) {
    const Relation rel = MultiVariableRelation(kTuples);
    limits.trip_at_check = n;
    {
      ExecContext ctx(limits, steady_clock::now());
      ExecContextScope scope(&ctx);
      auto tripped = cqa::Select(rel, pred);
      ASSERT_FALSE(tripped.ok()) << "check " << n;
      EXPECT_EQ(tripped.status().code(), StatusCode::kCancelled)
          << "check " << n << ": " << tripped.status().ToString();
    }
    obs::CounterScope counters;
    auto rerun = cqa::Select(rel, pred);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(counters.counters().boxes_built, kTuples)
        << "check " << n << ": the tripped build published";
    EXPECT_EQ(counters.counters().box_prunes, kTuples / 2) << "check " << n;
    EXPECT_TRUE(rerun->tuples() == reference) << "check " << n;
  }
}

// --- Service-level governance ---

TEST(GovernanceServiceTest, DeadlineOnExplosiveJoinReturnsTyped) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", OverlappingStoreRelation(400, 7)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  // A selection pair plus a join over pairwise-overlapping boxes:
  // quadratic constraint pairing, far more than 50 ms of work.
  const std::string script =
      "R0 = select x >= 0, x <= 2900 from Boxes\n"
      "R1 = select y >= 0, y <= 2900 from Boxes\n"
      "R2 = join R0 and R1";
  service::QueryOptions opts;
  opts.deadline_us = 50'000;
  const auto started = steady_clock::now();
  auto response = service.Execute(id, script, opts);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - started)
          .count();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  // Trip latency must be a small multiple of the deadline (the hard bound
  // of 2x is enforced by tools/stress_governance.sh in a Release build;
  // here we leave headroom for sanitizer instrumentation).
  EXPECT_LT(elapsed_ms, 500.0) << "deadline trip took too long";
  EXPECT_EQ(service.Metrics().deadline_hits, 1u);

  // The worker unwound cleanly: the same service keeps serving.
  auto fine = service.Execute(id, "R3 = select x >= 0, x <= 10 from Boxes");
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

TEST(GovernanceServiceTest, TraceHonorsTheDeadlineOnExplosiveJoin) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", OverlappingStoreRelation(400, 7)).ok());
  std::ostringstream jsonl;
  obs::TraceSink sink(&jsonl);
  service::ServiceOptions options;
  options.num_workers = 1;
  options.trace_sink = &sink;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  // The same explosive script, traced: Trace runs on the worker queue
  // under the same governance context as Execute.
  const std::string script =
      "R0 = select x >= 0, x <= 2900 from Boxes\n"
      "R1 = select y >= 0, y <= 2900 from Boxes\n"
      "R2 = join R0 and R1";
  service::QueryOptions opts;
  opts.deadline_us = 50'000;
  const auto started = steady_clock::now();
  auto report = service.Trace(id, script, opts);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - started)
          .count();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status().ToString();
  EXPECT_LT(elapsed_ms, 500.0) << "deadline trip took too long";
  const service::ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.deadline_hits, 1u);
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.traced_queries, 1u);
  // The partial span tree of the plan that tripped reached the sink.
  EXPECT_EQ(sink.events(), 1u);
  EXPECT_NE(jsonl.str().find("\"op\":\"Join\""), std::string::npos)
      << jsonl.str();
}

TEST(GovernanceServiceTest, SelfUnionChainCostsItsStepsNotItsPaths) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 7)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  // Every step reads the one before twice: 40 shared steps with 2^40
  // paths through them. Union deduplicates, so each step is one union of
  // the same 20 boxes; compiling, typing, optimizing and executing must
  // follow the steps, not the paths.
  std::string script = "R0 = select x >= 0 from Boxes\n";
  for (int k = 1; k <= 40; ++k) {
    const std::string prev = "R" + std::to_string(k - 1);
    script += "R" + std::to_string(k) + " = union " + prev + " and " + prev +
              "\n";
  }
  script += "R41 = project R40 on x";
  service::QueryOptions opts;
  opts.deadline_us = 2'000'000;
  const auto started = steady_clock::now();
  auto response = service.Execute(id, script, opts);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - started)
          .count();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_LT(elapsed_ms, 500.0) << "the chain took too long";

  auto direct = service.Execute(
      id, "Q0 = select x >= 0 from Boxes\nQ1 = project Q0 on x");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(response->relation.size(), direct->relation.size());
}

TEST(GovernanceServiceTest, TupleBudgetFailsWithResourceExhausted) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(100, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  service::QueryOptions opts;
  opts.max_tuples = 10;
  auto response =
      service.Execute(id, "R0 = select x >= 0 from Boxes", opts);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted)
      << response.status().ToString();
  EXPECT_EQ(service.Metrics().budget_trips, 1u);
}

TEST(GovernanceServiceTest, BudgetTripOnFinalChargeStillFails) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(100, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  // max_tuples = 99 latches the abort on the *last* Insert of the only
  // statement — after that iteration's top-of-loop check-point, with no
  // later loop iteration to observe it. The trip must still surface as
  // the typed error, never escape as an OK result.
  const std::string script = "R0 = select x >= 0 from Boxes";
  service::QueryOptions opts;
  opts.max_tuples = 99;
  auto response = service.Execute(id, script, opts);
  ASSERT_FALSE(response.ok())
      << "a trip latched on the final charge escaped as OK";
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted)
      << response.status().ToString();
  EXPECT_EQ(service.Metrics().budget_trips, 1u);

  // ... and the ungoverned rerun computes the full answer.
  auto full = service.Execute(id, script);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->relation.size(), 100u);
}

TEST(GovernanceServiceTest, TrippedGovernedQueryEmitsTraceWithoutSlowLog) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(30, 3)).ok());
  std::ostringstream jsonl;
  obs::TraceSink sink(&jsonl);
  service::ServiceOptions options;
  options.num_workers = 1;
  options.trace_sink = &sink;
  options.slow_query_us = 0;  // a governance trip is the only emit path
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  // Governed (a budget is set): operator spans are recorded, and the
  // trip emits them to the sink even with the slow-query log disabled.
  service::QueryOptions opts;
  opts.max_tuples = 10;
  auto tripped = service.Execute(id, "R0 = select x >= 0 from Boxes", opts);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(sink.events(), 1u) << "a governed trip must reach the sink";
  EXPECT_NE(jsonl.str().find("\"trace\":"), std::string::npos)
      << "governed queries must carry operator spans: " << jsonl.str();
  // The partial span tree of the plan that tripped: operator labels.
  EXPECT_NE(jsonl.str().find("\"op\":\"Select"), std::string::npos)
      << jsonl.str();
  EXPECT_EQ(jsonl.str().find("\"op\":\"R0 ="), std::string::npos)
      << jsonl.str();

  // An ungoverned success emits nothing (and pays no span recording).
  auto fine = service.Execute(id, "R1 = select x >= 0, x <= 5 from Boxes");
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(sink.events(), 1u);
}

TEST(GovernanceServiceTest, AllowPartialReturnsTruncatedSubsetUncached) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(100, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  const std::string script = "R0 = select x >= 0 from Boxes";
  service::QueryOptions opts;
  opts.max_tuples = 10;
  opts.allow_partial = true;
  auto partial = service.Execute(id, script, opts);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->truncated);
  EXPECT_GT(partial->relation.size(), 0u);
  EXPECT_LT(partial->relation.size(), 100u)
      << "the budget must actually have cut the result short";

  // The ungoverned rerun returns the full relation.
  auto full = service.Execute(id, script);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_EQ(full->relation.size(), 100u);

  service::ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.truncated, 1u);
  EXPECT_EQ(m.budget_trips, 1u);
  EXPECT_EQ(m.failed, 0u) << "truncation is a success, not a failure";
}

TEST(GovernanceServiceTest, CancellationMatrixUnwindsCleanlyAtEveryCheck) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(8, 2)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  const std::string script =
      "R0 = select x >= 0, x <= 2000 from Boxes\n"
      "R1 = select y >= 0, y <= 2000 from Boxes\n"
      "R2 = join R0 and R1";

  // Like the WAL crash matrix: trip at check N until the query survives.
  // Every tripped run must fail with exactly kCancelled (clean unwind, no
  // crash, no stuck worker). Exhaustive for the first 64 check positions,
  // then a geometric tail so the matrix stays fast under sanitizers.
  constexpr uint64_t kMaxChecks = 10'000'000;
  uint64_t tripped_runs = 0;
  bool survived = false;
  for (uint64_t n = 1; n <= kMaxChecks; n += (n < 64 ? 1 : n / 16)) {
    service::QueryOptions opts;
    opts.trip_at_check = n;
    auto response = service.Execute(id, script, opts);
    if (response.ok()) {
      survived = true;
      break;
    }
    ASSERT_EQ(response.status().code(), StatusCode::kCancelled)
        << "check " << n << ": " << response.status().ToString();
    ++tripped_runs;
  }
  ASSERT_TRUE(survived) << "query never completed within the matrix";
  EXPECT_GT(tripped_runs, 10u) << "the script must take many checks";
  EXPECT_EQ(service.Metrics().cancels, tripped_runs);

  // An ungoverned rerun still produces the right answer.
  auto clean = service.Execute(id, script);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->relation.size(), 0u);
}

TEST(GovernanceServiceTest, ExternalCancelFlagAbortsPromptly) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(300, 5)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  service::QueryOptions opts;
  opts.cancel = std::make_shared<CancelFlag>(true);  // cancelled at birth
  auto submitted = service.Submit(
      id,
      "R0 = select x >= 0 from Boxes\nR1 = select y >= 0 from Boxes\n"
      "R2 = join R0 and R1",
      opts);
  ASSERT_TRUE(submitted.ok());
  auto response = submitted->future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceServiceTest, CancelQueuedFailsFutureImmediately) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;  // everything stays queued
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();
  service::SessionId other = service.OpenSession();

  auto submitted = service.Submit(id, "R0 = select x >= 0 from Boxes");
  ASSERT_TRUE(submitted.ok());

  // Wrong session and unknown ids are rejected without side effects.
  EXPECT_EQ(service.Cancel(other, submitted->query_id).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Cancel(id, 777777).code(), StatusCode::kNotFound);

  ASSERT_TRUE(service.Cancel(id, submitted->query_id).ok());
  auto response = submitted->future.get();  // resolves without any worker
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.Cancel(id, submitted->query_id).code(),
            StatusCode::kNotFound)
      << "a cancelled query is gone";
  EXPECT_EQ(service.Metrics().cancels, 1u);
}

TEST(GovernanceServiceTest, CancelRunningQueryUnwinds) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", OverlappingStoreRelation(400, 9)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  // Several seconds of join work — every pair overlaps, so no box test
  // prunes it and FM refines all of them — and the Cancel below lands
  // mid-flight.
  auto submitted = service.Submit(
      id,
      "R0 = select x >= 0 from Boxes\nR1 = select y >= 0 from Boxes\n"
      "R2 = join R0 and R1");
  ASSERT_TRUE(submitted.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(service.Cancel(id, submitted->query_id).ok());
  auto response = submitted->future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled)
      << response.status().ToString();
  EXPECT_EQ(service.Metrics().cancels, 1u);

  auto fine = service.Execute(id, "R3 = select x >= 0, x <= 5 from Boxes");
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

TEST(GovernanceServiceTest, CostBasedSheddingRefusesWithRetryAfter) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 64;
  options.start_paused = true;
  // With no completed queries the estimator uses its 1 ms prior, so the
  // second submission estimates (1 queued + 0 running + 1) x 1000 us.
  options.shed_inflight_us = 1500;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  auto first = service.Submit(id, "R0 = select x >= 0 from Boxes");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = service.Submit(id, "R0 = select x >= 1 from Boxes");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(second.status().retry_after_ms(), 0);
  EXPECT_NE(second.status().ToString().find("retry after"),
            std::string::npos)
      << second.status().ToString();
  EXPECT_EQ(service.Metrics().sheds, 1u);

  service.Resume();
  EXPECT_TRUE(first->future.get().ok());
}

TEST(GovernanceServiceTest, ServiceDefaultsApplyWithoutPerQueryOptions) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(100, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  options.governance.max_tuples = 10;  // every query inherits this
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  auto response = service.Execute(id, "R0 = select x >= 0 from Boxes");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);

  // A per-query override lifts the default.
  service::QueryOptions opts;
  opts.max_tuples = 1000;
  auto lifted = service.Execute(id, "R0 = select x >= 0 from Boxes", opts);
  EXPECT_TRUE(lifted.ok()) << lifted.status().ToString();
}

TEST(GovernanceServiceTest, MetricsRenderGovernanceLine) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(30, 3)).ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService service(&base, options);
  service::SessionId id = service.OpenSession();

  service::QueryOptions deadline;
  deadline.deadline_us = 1;  // expires during queue wait, deterministically
  auto dead = service.Execute(id, "R0 = select x >= 0 from Boxes", deadline);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);

  service::ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.deadline_hits, 1u);
  EXPECT_NE(m.ToString().find("governance:"), std::string::npos)
      << m.ToString();
}

TEST(StatusTest, RetryAfterRoundTripsThroughToString) {
  Status s = Status::Unavailable("overloaded");
  EXPECT_EQ(s.retry_after_ms(), 0);
  s.WithRetryAfter(42);
  EXPECT_EQ(s.retry_after_ms(), 42);
  EXPECT_NE(s.ToString().find("retry after 42 ms"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(Status::Cancelled("c").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("d").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("r").code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ccdb
