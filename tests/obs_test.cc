// Tests for the observability layer (src/obs) and its integration:
// registry correctness under concurrent writers (run under
// -DCCDB_SANITIZE=thread to prove the lock-free paths race-free),
// trace-tree shape vs. the optimized plan, the slow-query log, and JSONL
// export well-formedness.

#include <atomic>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ccdb.h"

namespace ccdb {
namespace {

// --- Registry primitives under concurrent writers -------------------------

TEST(CounterTest, ConcurrentAddsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
}

TEST(HistogramTest, ConcurrentRecordsKeepCountAndSum) {
  obs::Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::Histogram::Snapshot snap = hist.snapshot();
  const uint64_t n = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum, n * (n - 1) / 2);  // 0 + 1 + ... + n-1
}

TEST(HistogramTest, PercentileUpperBoundIsConservative) {
  obs::Histogram hist;
  for (uint64_t v = 0; v < 1000; ++v) hist.Record(v);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  // The true p50 is ~500; the log2 bucket upper bound must cover it but
  // stay within a factor of 2.
  const uint64_t p50 = snap.PercentileUpperBound(0.50);
  EXPECT_GE(p50, uint64_t{500});
  EXPECT_LE(p50, uint64_t{1023});
  EXPECT_GE(snap.PercentileUpperBound(0.99), uint64_t{990});
  // Percentiles are monotone in the fraction.
  EXPECT_LE(p50, snap.PercentileUpperBound(0.90));
  // A sample past the last finite bucket lands in the overflow bucket,
  // whose bound is +Inf (UINT64_MAX), never one below the sample.
  const uint64_t huge = uint64_t{1} << 45;
  hist.Record(huge);
  const obs::Histogram::Snapshot with_huge = hist.snapshot();
  EXPECT_GE(with_huge.PercentileUpperBound(1.0), huge);
  EXPECT_EQ(with_huge.PercentileUpperBound(1.0),
            obs::Histogram::Snapshot::BucketUpperBound(
                obs::Histogram::kBuckets - 1));
}

TEST(RegistryTest, SameNameYieldsSameHandleUnderRaces) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> handles(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &handles, t] {
      obs::Counter* c = registry.GetCounter("races.test");
      handles[static_cast<size_t>(t)] = c;
      for (int i = 0; i < 1000; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[0], handles[t]);
  EXPECT_EQ(handles[0]->Value(), uint64_t{8000});

  registry.SetGauge("races.gauge", 42);
  const obs::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.Value("races.test"), uint64_t{8000});
  EXPECT_EQ(snap.Value("races.gauge"), uint64_t{42});
  EXPECT_EQ(snap.Value("no.such.metric"), uint64_t{0});
}

// --- The thread-local trace context ---------------------------------------

TEST(CounterScopeTest, NestedScopesFoldIntoParent) {
  EXPECT_FALSE(obs::TracingActive());
  obs::NoteConjunction();  // no scope installed: must be a no-op
  {
    obs::CounterScope outer;
    EXPECT_TRUE(obs::TracingActive());
    obs::NoteConjunction();
    {
      obs::CounterScope inner;
      obs::NoteFmElimination();
      obs::NoteFmElimination();
      obs::NoteRedundancyCulls(3);
      EXPECT_EQ(inner.counters().fm_eliminations, uint64_t{2});
      EXPECT_EQ(inner.counters().conjunctions, uint64_t{0});
    }
    // The inner scope's totals folded back into the outer scope.
    EXPECT_EQ(outer.counters().conjunctions, uint64_t{1});
    EXPECT_EQ(outer.counters().fm_eliminations, uint64_t{2});
    EXPECT_EQ(outer.counters().redundancy_culls, uint64_t{3});
  }
  EXPECT_FALSE(obs::TracingActive());
}

/// Every LayerCounters field by name, kept apart from the engine's own
/// field table so that a field the table misses shows here.
constexpr uint64_t obs::LayerCounters::*kEveryCounter[] = {
    &obs::LayerCounters::conjunctions,
    &obs::LayerCounters::box_prunes,
    &obs::LayerCounters::boxes_built,
    &obs::LayerCounters::fm_eliminations,
    &obs::LayerCounters::box_solves,
    &obs::LayerCounters::redundancy_culls,
    &obs::LayerCounters::index_node_visits,
    &obs::LayerCounters::index_leaf_hits,
    &obs::LayerCounters::pages_read,
    &obs::LayerCounters::pool_hits,
    &obs::LayerCounters::fm_pairings,
};

TEST(LayerCountersTest, ArithmeticCoversEveryField) {
  ASSERT_EQ(sizeof(obs::LayerCounters),
            std::size(kEveryCounter) * sizeof(uint64_t))
      << "a LayerCounters field is missing from kEveryCounter";
  // Distinct values per field, so a dropped or swapped field shows.
  obs::LayerCounters big;
  obs::LayerCounters small;
  for (size_t i = 0; i < std::size(kEveryCounter); ++i) {
    big.*kEveryCounter[i] = 1000 * (i + 1);
    small.*kEveryCounter[i] = i + 1;
  }
  obs::LayerCounters sum = big;
  sum += small;
  const obs::LayerCounters difference = big - small;
  for (size_t i = 0; i < std::size(kEveryCounter); ++i) {
    EXPECT_EQ(sum.*kEveryCounter[i], 1001 * (i + 1)) << "field " << i;
    EXPECT_EQ(difference.*kEveryCounter[i], 999 * (i + 1)) << "field " << i;
  }

  EXPECT_TRUE(obs::LayerCounters{}.IsZero());
  for (size_t i = 0; i < std::size(kEveryCounter); ++i) {
    obs::LayerCounters one;
    one.*kEveryCounter[i] = 1;
    EXPECT_FALSE(one.IsZero()) << "field " << i;
  }
}

TEST(LayerCountersTest, FmPairingsCountWhatThePairingStepDerives) {
  // v has two lower bounds and three upper bounds over other variables:
  // eliminating it pairs each lower with each upper, six derivations.
  const LinearExpr v = LinearExpr::Variable("v");
  Conjunction store;
  for (const char* lower : {"a", "b"}) {
    store.Add(Constraint::Ge(v, LinearExpr::Variable(lower)));
  }
  for (const char* upper : {"c", "d", "e"}) {
    store.Add(Constraint::Le(v, LinearExpr::Variable(upper)));
  }
  obs::CounterScope scope;
  fm::EliminateVariable(store, "v");
  EXPECT_EQ(scope.counters().fm_eliminations, uint64_t{1});
  EXPECT_EQ(scope.counters().fm_pairings, uint64_t{6});
  EXPECT_NE(scope.counters().ToString().find(", fm pairs 6"),
            std::string::npos)
      << scope.counters().ToString();
  // No pairing, no mention.
  EXPECT_EQ(obs::LayerCounters{}.ToString().find("fm pairs"),
            std::string::npos);
}

TEST(TraceTest, SpanJsonIsPinned) {
  // One span's JSON, key for key: the counters in struct order under
  // their field names, as the trace sink writes them.
  obs::TraceNode node;
  node.label = "Scan \"Boxes\"";
  node.wall_us = 1.5;
  node.self_us = 0.25;
  node.tuples_in = 33;
  node.tuples_out = 34;
  for (size_t i = 0; i < std::size(kEveryCounter); ++i) {
    node.counters.*kEveryCounter[i] = i + 1;
  }
  EXPECT_EQ(node.ToJson(),
            "{\"op\":\"Scan \\\"Boxes\\\"\",\"wall_us\":1.500,"
            "\"self_us\":0.250,\"in\":33,\"out\":34,\"conjunctions\":1,"
            "\"box_prunes\":2,\"boxes_built\":3,\"fm_eliminations\":4,"
            "\"box_solves\":5,\"redundancy_culls\":6,"
            "\"index_node_visits\":7,\"index_leaf_hits\":8,"
            "\"pages_read\":9,\"pool_hits\":10,\"fm_pairings\":11}");
}

// --- Trace trees from the executor ----------------------------------------

/// A database with one constraint relation of generated boxes.
Database BoxDatabase(size_t count) {
  WorkloadParams params;
  params.data_count = count;
  Database db;
  EXPECT_TRUE(
      db.Create("Boxes", BoxesToConstraintRelation(GenerateDataBoxes(7, params)))
          .ok());
  return db;
}

constexpr const char* kJoinScript =
    "R0 = select x >= 100, x <= 600 from Boxes\n"
    "R1 = select y >= 100, y <= 600 from Boxes\n"
    "R2 = join R0 and R1";

/// Structural equality of a plan and its trace: same labels, same shape.
void ExpectTraceMatchesPlan(const cqa::PlanNode& plan,
                            const obs::TraceNode& trace) {
  EXPECT_EQ(trace.label, plan.Label());
  ASSERT_EQ(trace.children.size(), plan.children.size());
  for (size_t i = 0; i < plan.children.size(); ++i) {
    ExpectTraceMatchesPlan(*plan.children[i], trace.children[i]);
  }
}

TEST(TraceTest, TreeShapeMatchesOptimizedPlan) {
  Database db = BoxDatabase(60);
  auto compiled = lang::CompileScript(kJoinScript, db);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::unique_ptr<cqa::PlanNode> plan =
      cqa::Optimize(std::move(compiled->plan), db);

  obs::TraceNode root;
  auto result = cqa::ExecuteTraced(*plan, db, &root);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectTraceMatchesPlan(*plan, root);
  EXPECT_EQ(root.tuples_out, result->size());
  EXPECT_GT(root.wall_us, 0.0);
  // Every operator in this plan touches constraint stores, so the
  // subtree totals must show constraint-layer work.
  EXPECT_GT(root.TotalCounters().conjunctions, uint64_t{0});
  // self time never exceeds inclusive wall time.
  EXPECT_LE(root.self_us, root.wall_us);
}

TEST(TraceTest, BoxCacheBuildShowsOnItsFirstReader) {
  // The first query to read a relation version pays for its boxes; the
  // span that paid says how many tuples it boxed, and later reads of the
  // version build nothing.
  Database db = BoxDatabase(60);
  service::QueryService svc(&db);
  const service::SessionId session = svc.OpenSession();
  const std::string script = "R0 = select x >= 100, x <= 900 from Boxes";
  auto cold = svc.Trace(session, script);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->root.TotalCounters().boxes_built, 60u);
  EXPECT_NE(cold->root.ToString().find(", boxed 60"), std::string::npos)
      << cold->root.ToString();
  EXPECT_NE(cold->root.ToJson().find("\"boxes_built\":60"),
            std::string::npos);
  auto warm = svc.Trace(session, script);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->root.TotalCounters().boxes_built, 0u);
  EXPECT_EQ(warm->root.ToString().find("boxed"), std::string::npos);
  EXPECT_TRUE(warm->response.relation.tuples() ==
              cold->response.relation.tuples());
  EXPECT_EQ(svc.Metrics().engine.boxes_built, 60u);
  EXPECT_NE(svc.Metrics().ToString().find(", boxed 60"), std::string::npos);
}

TEST(TraceTest, FilterAndRefineShowSideBySide) {
  // The selections and the join each prune boxes before FM; the spans
  // carry the pruned count beside the refined conjunctions.
  Database db = BoxDatabase(60);
  auto compiled = lang::CompileScript(kJoinScript, db);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::unique_ptr<cqa::PlanNode> plan =
      cqa::Optimize(std::move(compiled->plan), db);
  obs::TraceNode root;
  ASSERT_TRUE(cqa::ExecuteTraced(*plan, db, &root).ok());

  const obs::LayerCounters total = root.TotalCounters();
  EXPECT_GT(total.box_prunes, uint64_t{0});
  EXPECT_GT(total.conjunctions, uint64_t{0});
  for (const obs::TraceNode& child : root.children) {
    // Each selection tests every one of the 60 boxes: pruned or refined.
    EXPECT_EQ(child.counters.box_prunes + child.counters.conjunctions,
              uint64_t{60})
        << child.label;
  }
  EXPECT_NE(root.ToString().find(", pruned "), std::string::npos);
  EXPECT_NE(root.ToJson().find("\"box_prunes\":"), std::string::npos);

  // The served run drains the same work into the registry, counter for
  // counter. Its own copy of the data builds its own boxes: copies of one
  // relation version share a box cache, which the run above filled.
  EXPECT_GT(total.boxes_built, uint64_t{0});
  Database served = BoxDatabase(60);
  service::QueryService svc(&served);
  const service::SessionId session = svc.OpenSession();
  ASSERT_TRUE(svc.Execute(session, kJoinScript).ok());
  const obs::MetricsRegistry::Snapshot snap = svc.MetricsSnapshot();
  EXPECT_EQ(snap.Value(obs::names::kCqaConjunctions), total.conjunctions);
  EXPECT_EQ(snap.Value(obs::names::kCqaBoxPrunes), total.box_prunes);
  EXPECT_EQ(snap.Value(obs::names::kCqaBoxesBuilt), total.boxes_built);
  EXPECT_EQ(snap.Value(obs::names::kFmEliminations), total.fm_eliminations);
  EXPECT_EQ(snap.Value(obs::names::kFmBoxSolves), total.box_solves);
  EXPECT_EQ(snap.Value(obs::names::kFmPairings), total.fm_pairings);
  EXPECT_EQ(snap.Value(obs::names::kFmRedundancyCulls),
            total.redundancy_culls);
  EXPECT_EQ(snap.Value(obs::names::kIndexNodeVisits),
            total.index_node_visits);
  EXPECT_EQ(snap.Value(obs::names::kIndexLeafHits), total.index_leaf_hits);
  EXPECT_EQ(snap.Value(obs::names::kStoragePagesRead), total.pages_read);
  EXPECT_EQ(snap.Value(obs::names::kStoragePoolHits), total.pool_hits);
  EXPECT_NE(svc.Metrics().ToString().find(", pruned "), std::string::npos);
}

TEST(TraceTest, JsonOutputIsWellFormed) {
  Database db = BoxDatabase(30);
  auto compiled = lang::CompileScript(kJoinScript, db);
  ASSERT_TRUE(compiled.ok());
  std::unique_ptr<cqa::PlanNode> plan =
      cqa::Optimize(std::move(compiled->plan), db);
  obs::TraceNode root;
  ASSERT_TRUE(cqa::ExecuteTraced(*plan, db, &root).ok());

  const std::string json = root.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces in: " << json;
  EXPECT_FALSE(in_string) << "unterminated string in: " << json;
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

// --- Service integration: Trace(), the slow-query log, metrics ------------

TEST(ServiceTraceTest, ExplicitTraceUsesOptimizedPlan) {
  Database db = BoxDatabase(60);
  std::ostringstream jsonl;
  obs::TraceSink sink(&jsonl);
  service::ServiceOptions options;
  options.num_workers = 2;
  options.trace_sink = &sink;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  auto report = svc.Trace(session, kJoinScript);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->plan_text.empty());
  EXPECT_FALSE(report->root.children.empty());
  EXPECT_EQ(report->root.tuples_out, report->response.relation.size());
  EXPECT_GT(report->root.TotalCounters().conjunctions, uint64_t{0});
  // Every store the script refines is a box: each is settled by its
  // intervals, and none reaches Fourier–Motzkin.
  EXPECT_GT(report->root.TotalCounters().box_solves, uint64_t{0});
  EXPECT_EQ(report->root.TotalCounters().fm_eliminations, uint64_t{0});

  // A trace is a query: it went through the queue like Execute.
  const service::ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.traced_queries, uint64_t{1});
  EXPECT_EQ(m.submitted, uint64_t{1});
  EXPECT_EQ(m.completed, uint64_t{1});
  EXPECT_GT(m.engine.conjunctions, uint64_t{0});
  EXPECT_GT(m.engine.box_solves, uint64_t{0});
  EXPECT_EQ(m.engine.fm_eliminations, uint64_t{0});

  // The sink got one well-formed JSONL line for the trace.
  EXPECT_EQ(sink.events(), uint64_t{1});
  const std::string line = jsonl.str();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "exactly one line";
  EXPECT_NE(line.find("\"trace\""), std::string::npos);

  // A multi-variable atom makes every refined store a non-box: FM runs,
  // and its work drains into the metrics.
  auto diagonal = svc.Trace(session, "R0 = select x + y <= 900 from Boxes");
  ASSERT_TRUE(diagonal.ok()) << diagonal.status().ToString();
  EXPECT_GT(diagonal->root.TotalCounters().fm_eliminations, uint64_t{0});
  const service::ServiceMetrics m2 = svc.Metrics();
  EXPECT_EQ(m2.traced_queries, uint64_t{2});
  EXPECT_GT(m2.engine.fm_eliminations, uint64_t{0});
}

TEST(ServiceTraceTest, TransactionControlIsRefusedWithoutRunning) {
  Database db = BoxDatabase(10);
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  // BEGIN, COMMIT and ROLLBACK have no plan: a trace of one must neither
  // open, publish nor drop a transaction.
  auto expect_refused = [&](const char* control) {
    auto report = svc.Trace(session, control);
    ASSERT_FALSE(report.ok()) << control;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << control;
  };
  expect_refused("BEGIN");
  ASSERT_TRUE(svc.TransactionInfo(session).ok());
  EXPECT_FALSE(svc.TransactionInfo(session)->active);

  ASSERT_TRUE(svc.Execute(session, "BEGIN").ok());
  expect_refused("commit transaction");
  expect_refused("ROLLBACK");
  EXPECT_TRUE(svc.TransactionInfo(session)->active);
  ASSERT_TRUE(svc.Execute(session, "ROLLBACK").ok());

  const service::ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.submitted, uint64_t{2}) << "only the two Executes ran";
  EXPECT_EQ(m.traced_queries, uint64_t{0});
  EXPECT_EQ(m.txn_commits, uint64_t{0});
}

TEST(ServiceTraceTest, TraceReportsTheClientsLineNumbers) {
  Database db = BoxDatabase(10);
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  // The ill-typed union is on the client's line 5.
  auto report = svc.Trace(session,
                          "# steps of one query\n"
                          "\n"
                          "R0 = select x >= 0, x <= 500 from Boxes\n"
                          "R1 = project R0 on y\n"
                          "R2 = union R0 and R1");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.status().message().rfind("line 5: ", 0), 0u)
      << report.status().ToString();
}

TEST(ServiceTraceTest, FractionsAndCoefficientsTraceLikeRunQuery) {
  Database db = BoxDatabase(30);
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();
  for (const char* script : {"R0 = select x <= 1801/2 from Boxes",
                             "R0 = select 2x + y <= 3000 from Boxes",
                             "R0 = select x + 3/2y <= 2500 from Boxes"}) {
    Database local = db;
    auto want = lang::RunQuery(script, &local);
    ASSERT_TRUE(want.ok()) << script << ": " << want.status().ToString();
    EXPECT_GT(want->size(), 0u) << script;
    auto report = svc.Trace(session, script);
    ASSERT_TRUE(report.ok()) << script << ": " << report.status().ToString();
    EXPECT_EQ(report->response.relation.ToString(), want->ToString())
        << script;
  }
}

TEST(ServiceTraceTest, NormalizeAndFeatureScriptsTracePerOperator) {
  Database db;
  ASSERT_TRUE(lang::LoadDatabaseFile(
                  std::string(CCDB_DATA_DIR) + "/hurricane/hurricane.cdb", &db)
                  .ok());
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  // Every statement form is a plan operator: each script traces as one
  // span per operator, down to its scans.
  struct Case {
    const char* script;
    const char* root;
    std::vector<std::string> inputs;
  };
  const Case cases[] = {
      {"R0 = select t >= 4 from Hurricane\nR1 = normalize R0", "Normalize",
       {"Select [-t <= -4]"}},
      {"R0 = buffer-join LandFeatures and HurricanePath within 1/2",
       "BufferJoin [within 1/2 using fid]",
       {"Scan LandFeatures", "Scan HurricanePath"}},
      {"R0 = k-nearest HurricanePath and LandFeatures k 2",
       "KNearest [k 2 using fid]",
       {"Scan HurricanePath", "Scan LandFeatures"}},
  };
  for (const Case& c : cases) {
    auto report = svc.Trace(session, c.script);
    ASSERT_TRUE(report.ok()) << c.script << ": " << report.status().ToString();
    EXPECT_EQ(report->root.label, c.root);
    EXPECT_EQ(report->root.tuples_out, report->response.relation.size());
    ASSERT_EQ(report->root.children.size(), c.inputs.size()) << c.script;
    for (size_t i = 0; i < c.inputs.size(); ++i) {
      EXPECT_EQ(report->root.children[i].label, c.inputs[i]);
    }
  }
}

TEST(ServiceTraceTest, SlowQueryLogFiresAtThreshold) {
  Database db = BoxDatabase(60);
  std::ostringstream jsonl;
  obs::TraceSink sink(&jsonl);
  service::ServiceOptions options;
  options.num_workers = 2;
  options.slow_query_us = 0.001;  // everything is slow
  options.trace_sink = &sink;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  auto response = svc.Execute(session, kJoinScript);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const service::ServiceMetrics m = svc.Metrics();
  EXPECT_GE(m.slow_queries, uint64_t{1});
  EXPECT_GE(sink.events(), uint64_t{1});
  const std::string line = jsonl.str();
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
  // The logged spans are the operators of the plan that ran.
  EXPECT_NE(line.find("\"op\":\"Join\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"op\":\"Select"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"op\":\"R0 ="), std::string::npos) << line;

  // The latency histogram saw the query.
  bool found_latency = false;
  for (const auto& h : m.histograms) {
    if (h.name == obs::names::kQueryLatencyUs) {
      found_latency = true;
      EXPECT_GE(h.count, uint64_t{1});
    }
  }
  EXPECT_TRUE(found_latency);
}

TEST(ServiceTraceTest, FastQueriesDoNotTripTheSlowLog) {
  Database db = BoxDatabase(20);
  std::ostringstream jsonl;
  obs::TraceSink sink(&jsonl);
  service::ServiceOptions options;
  options.num_workers = 1;
  options.slow_query_us = 60e6;  // a minute: nothing here is that slow
  options.trace_sink = &sink;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  auto response =
      svc.Execute(session, "R0 = select x >= 100, x <= 200 from Boxes");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(svc.Metrics().slow_queries, uint64_t{0});
  EXPECT_EQ(sink.events(), uint64_t{0});
}

TEST(ServiceTraceTest, ConcurrentQueriesPublishExactEngineTotals) {
  Database db = BoxDatabase(40);
  service::ServiceOptions options;
  options.num_workers = 4;
  service::QueryService svc(&db, options);

  constexpr int kClients = 4;
  constexpr int kQueriesEach = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &failures, c] {
      const service::SessionId session = svc.OpenSession();
      for (int i = 0; i < kQueriesEach; ++i) {
        const int lo = 100 + 37 * (c * kQueriesEach + i);
        auto r = svc.Execute(
            session, "R0 = select x >= " + std::to_string(lo) + ", x <= " +
                         std::to_string(lo + 400) + " from Boxes");
        if (!r.ok()) failures.fetch_add(1);
      }
      if (!svc.CloseSession(session).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const service::ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.completed, uint64_t{kClients * kQueriesEach});
  // Every select materializes at least one constraint store per output
  // tuple, so engine counters drained from all workers must be visible.
  EXPECT_GT(m.engine.conjunctions, uint64_t{0});
}

}  // namespace
}  // namespace ccdb
