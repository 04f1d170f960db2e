// Tests for the fleet-observability surfaces: the Prometheus text
// exposition (golden format, name mangling, cumulative bucket series),
// the declared-name coverage gate (every metric_names.h family must
// render), scrape-under-load race freedom (run under
// -DCCDB_SANITIZE=thread), the structured JSONL event log, and the
// slow-query-log field set (query_id / session / trace_id stamping).

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ccdb.h"

namespace ccdb {
namespace {

// --- Name mangling and label escaping --------------------------------------

TEST(PrometheusNameTest, ManglesToExpositionCharset) {
  EXPECT_EQ(obs::PrometheusName("query.latency_us"), "ccdb_query_latency_us");
  EXPECT_EQ(obs::PrometheusName("net.connections.open"),
            "ccdb_net_connections_open");
  EXPECT_EQ(obs::PrometheusName("weird-name with spaces"),
            "ccdb_weird_name_with_spaces");
  // The exposition charset itself passes through untouched.
  EXPECT_EQ(obs::PrometheusName("already_ok:name42"),
            "ccdb_already_ok:name42");
}

TEST(PrometheusNameTest, LabelEscapeCoversTheThreeSpecials) {
  EXPECT_EQ(obs::PrometheusLabelEscape("plain"), "plain");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\nb"), "a\\nb");
}

// --- Histogram bucket geometry ---------------------------------------------

TEST(HistogramSnapshotTest, BucketUpperBoundsAreLog2) {
  EXPECT_EQ(obs::Histogram::Snapshot::BucketUpperBound(0), uint64_t{0});
  EXPECT_EQ(obs::Histogram::Snapshot::BucketUpperBound(1), uint64_t{1});
  EXPECT_EQ(obs::Histogram::Snapshot::BucketUpperBound(2), uint64_t{3});
  EXPECT_EQ(obs::Histogram::Snapshot::BucketUpperBound(10), uint64_t{1023});
  // The overflow bucket renders as +Inf.
  EXPECT_EQ(
      obs::Histogram::Snapshot::BucketUpperBound(obs::Histogram::kBuckets - 1),
      UINT64_MAX);
}

TEST(HistogramSnapshotTest, CumulativeCountsAreMonotoneAndEndAtCount) {
  obs::Histogram hist;
  const uint64_t samples[] = {0, 1, 2, 3, 100, 5000, 5000, 1u << 20};
  for (uint64_t v : samples) hist.Record(v);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  const auto cumulative = snap.CumulativeCounts();
  for (size_t i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
  }
  EXPECT_EQ(cumulative[obs::Histogram::kBuckets - 1], snap.count);
  // Spot checks against the log2 bounds: samples <= 3 are {0,1,2,3}.
  EXPECT_EQ(cumulative[0], uint64_t{1});
  EXPECT_EQ(cumulative[2], uint64_t{4});
}

// --- The golden exposition format ------------------------------------------

TEST(RenderPrometheusTest, GoldenFormatForEachKind) {
  obs::MetricsRegistry registry;
  registry.GetCounter("queries.submitted")->Add(3);
  registry.SetGauge("queue.depth", 2);
  obs::Histogram* hist = registry.GetHistogram("query.latency_us");
  hist->Record(0);
  hist->Record(3);
  hist->Record(100);
  const std::string out = obs::RenderPrometheus(registry.TakeSnapshot());

  // Counter family: HELP + TYPE + one sample.
  EXPECT_NE(out.find("# HELP ccdb_queries_submitted ccdb metric "
                     "queries.submitted\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE ccdb_queries_submitted counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("ccdb_queries_submitted 3\n"), std::string::npos);

  // Gauge family: the gauges set flips the TYPE.
  EXPECT_NE(out.find("# TYPE ccdb_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("ccdb_queue_depth 2\n"), std::string::npos);

  // Histogram family: cumulative buckets — 0 lands in le="0", 3 in
  // le="3", 100 in le="127" — then +Inf, _sum, _count.
  EXPECT_NE(out.find("# TYPE ccdb_query_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("ccdb_query_latency_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("ccdb_query_latency_us_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("ccdb_query_latency_us_bucket{le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("ccdb_query_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("ccdb_query_latency_us_sum 103\n"), std::string::npos);
  EXPECT_NE(out.find("ccdb_query_latency_us_count 3\n"), std::string::npos);
}

TEST(RenderPrometheusTest, BucketSeriesIsMonotone) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("query.tuples_out");
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    hist->Record(static_cast<uint64_t>(rng.UniformInt(0, 100000)));
  }
  const std::string out = obs::RenderPrometheus(registry.TakeSnapshot());
  // Walk the rendered _bucket lines in order; counts must never decrease
  // and the +Inf bucket must equal _count.
  const std::string prefix = "ccdb_query_tuples_out_bucket{le=";
  uint64_t previous = 0;
  uint64_t inf_value = 0;
  size_t buckets_seen = 0;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const uint64_t value = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    EXPECT_GE(value, previous) << line;
    previous = value;
    ++buckets_seen;
    if (line.find("+Inf") != std::string::npos) inf_value = value;
  }
  EXPECT_GT(buckets_seen, size_t{2});
  EXPECT_EQ(inf_value, uint64_t{500});
  EXPECT_NE(out.find("ccdb_query_tuples_out_count 500\n"), std::string::npos);
}

TEST(RenderPrometheusTest, BuildInfoCarriesTheVersionLabel) {
  const std::string out = obs::RenderBuildInfo();
  EXPECT_NE(out.find("# TYPE ccdb_build_info gauge\n"), std::string::npos);
  EXPECT_NE(out.find("ccdb_build_info{version=\""), std::string::npos);
  EXPECT_NE(out.find("\"} 1\n"), std::string::npos);
  EXPECT_NE(std::string(obs::BuildVersion()), "");
}

TEST(RenderPrometheusTest, ProcessGaugesPublish) {
  obs::MetricsRegistry registry;
  obs::PublishProcessGauges(&registry);
  const obs::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.gauges.count(obs::names::kProcessUptimeSeconds), size_t{1});
  EXPECT_EQ(snap.gauges.count(obs::names::kProcessStartTime), size_t{1});
  // Start time is wall-clock epoch seconds: comfortably past 2020.
  EXPECT_GT(snap.Value(obs::names::kProcessStartTime),
            uint64_t{1577836800});
}

// --- Coverage gate: every declared name renders ----------------------------

TEST(RenderPrometheusTest, EveryDeclaredMetricNameRenders) {
  obs::MetricsRegistry registry;
  for (const char* name : obs::names::AllMetricNames()) {
    bool is_histogram = false;
    for (const char* hist_name : obs::names::HistogramMetricNames()) {
      if (std::string(name) == hist_name) is_histogram = true;
    }
    if (is_histogram) {
      registry.GetHistogram(name)->Record(1);
    } else {
      registry.GetCounter(name)->Add(1);
    }
  }
  const std::string out = obs::RenderPrometheus(registry.TakeSnapshot()) +
                          obs::RenderBuildInfo();
  for (const char* name : obs::names::AllMetricNames()) {
    const std::string type_line = "# TYPE " + obs::PrometheusName(name) + " ";
    EXPECT_NE(out.find(type_line), std::string::npos)
        << "metric_names.h declares '" << name
        << "' but the exposition surface never renders it";
  }
}

// --- Scrape under concurrent load (TSan-clean) -----------------------------

TEST(RenderPrometheusTest, ConcurrentScrapeUnderLoad) {
  obs::MetricsRegistry registry;
  // Register (and occupy) the families up front, so every scrape — even
  // one that wins the race against the first writer iteration — sees them.
  registry.GetCounter("queries.completed")->Increment();
  registry.GetHistogram("query.latency_us")->Record(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      obs::Counter* counter = registry.GetCounter("queries.completed");
      obs::Histogram* hist = registry.GetHistogram("query.latency_us");
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        hist->Record(i++ % 10000);
        registry.SetGauge("queue.depth", i % 7);
      }
      (void)t;
    });
  }
  for (int scrape = 0; scrape < 50; ++scrape) {
    const std::string out = obs::RenderPrometheus(registry.TakeSnapshot());
    EXPECT_NE(out.find("ccdb_queries_completed"), std::string::npos);
    EXPECT_NE(out.find("ccdb_query_latency_us_count"), std::string::npos);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  // A final quiesced scrape agrees with the counter exactly.
  const obs::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.Value("queries.completed"),
            registry.GetCounter("queries.completed")->Value());
}

// --- The structured event log ----------------------------------------------

TEST(EventLogTest, EmitsOneJsonObjectPerLine) {
  std::ostringstream out;
  obs::EventLog log(&out);

  obs::Event open;
  open.type = "conn_open";
  open.conn_id = 7;
  log.Emit(open);

  obs::Event shed;
  shed.type = "shed";
  shed.session = 3;
  shed.trace_id = 99;
  shed.detail = "queue full";
  log.Emit(shed);

  EXPECT_EQ(log.events(), uint64_t{2});
  std::istringstream lines(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));

  EXPECT_NE(first.find("\"type\":\"conn_open\""), std::string::npos);
  EXPECT_NE(first.find("\"conn\":7"), std::string::npos);
  EXPECT_NE(first.find("\"ts_us\":"), std::string::npos);
  // Zero-valued ids stay out of the line entirely.
  EXPECT_EQ(first.find("\"session\""), std::string::npos);
  EXPECT_EQ(first.find("\"trace_id\""), std::string::npos);
  EXPECT_EQ(first.find("\"detail\""), std::string::npos);

  EXPECT_NE(second.find("\"type\":\"shed\""), std::string::npos);
  EXPECT_NE(second.find("\"session\":3"), std::string::npos);
  EXPECT_NE(second.find("\"trace_id\":99"), std::string::npos);
  EXPECT_NE(second.find("\"detail\":\"queue full\""), std::string::npos);
  EXPECT_EQ(second.find("\"conn\""), std::string::npos);

  for (const std::string& line : {first, second}) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(EventLogTest, EscapesDetailText) {
  std::ostringstream out;
  obs::EventLog log(&out);
  obs::Event event;
  event.type = "checkpoint";
  event.detail = "quote \" and\nnewline";
  log.Emit(event);
  const std::string line = out.str();
  EXPECT_NE(line.find("\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  // Exactly one line: the raw newline was escaped, not emitted.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

// --- Slow-query log stamping -----------------------------------------------

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

TEST(SlowQueryLogTest, EntriesCarryQueryIdSessionAndTraceId) {
  Database db = BoxDatabase(60);
  std::ostringstream jsonl;
  obs::TraceSink sink(&jsonl);
  service::ServiceOptions options;
  options.num_workers = 2;
  options.slow_query_us = 0.001;  // everything is slow
  options.trace_sink = &sink;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  service::QueryOptions opts;
  opts.trace_id = 424242;
  auto response = svc.Execute(session, kJoinScript, opts);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_GE(sink.events(), uint64_t{1});

  const std::string line = jsonl.str();
  // The pinned field set: slow flag plus the three correlation ids.
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(line.find("\"query_id\":"), std::string::npos);
  EXPECT_NE(line.find("\"session\":" + std::to_string(session)),
            std::string::npos);
  EXPECT_NE(line.find("\"trace_id\":424242"), std::string::npos);
}

TEST(SlowQueryLogTest, TraceReportsEchoTheCallerTraceId) {
  Database db = BoxDatabase(40);
  service::ServiceOptions options;
  options.num_workers = 1;
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();

  service::QueryOptions opts;
  opts.trace_id = 555;
  auto report = svc.Trace(session, kJoinScript, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->trace_id, uint64_t{555});
}

// --- The merged service snapshot -------------------------------------------

TEST(MetricsSnapshotTest, PublishesHealthAndProcessGauges) {
  Database db = BoxDatabase(20);
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  service::ServiceOptions options;
  options.num_workers = 1;
  options.disk = &disk;
  options.store = store->get();
  service::QueryService svc(&db, options);
  const service::SessionId session = svc.OpenSession();
  ASSERT_TRUE(
      svc.Execute(session, "R0 = select x >= 0, x <= 500 from Boxes").ok());

  const obs::MetricsRegistry::Snapshot snap = svc.MetricsSnapshot();
  EXPECT_EQ(snap.gauges.count(obs::names::kWalLsn), size_t{1});
  EXPECT_EQ(snap.gauges.count(obs::names::kTxnConflictRate), size_t{1});
  EXPECT_EQ(snap.gauges.count(obs::names::kCatalogEpoch), size_t{1});
  EXPECT_EQ(snap.gauges.count(obs::names::kProcessUptimeSeconds), size_t{1});
  EXPECT_GE(snap.Value(obs::names::kCatalogEpoch), uint64_t{1});
  EXPECT_GE(snap.Value(obs::names::kWalLsn), uint64_t{1});
  EXPECT_GE(snap.Value(obs::names::kQueriesCompleted), uint64_t{1});
}

}  // namespace
}  // namespace ccdb
