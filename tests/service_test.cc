#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/operators.h"
#include "data/workload.h"
#include "lang/query.h"
#include "obs/exposition.h"
#include "obs/metric_names.h"
#include "storage/fault.h"
#include "storage/wal.h"

namespace ccdb::service {
namespace {

/// A small box dataset as a constraint relation over (x, y).
Relation BoxRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

/// The mixed read-only workload: per-script selection windows that shift
/// with `i`, a projection, and a small join of two selections.
std::vector<std::string> MakeScripts(size_t count) {
  std::vector<std::string> scripts;
  for (size_t i = 0; i < count; ++i) {
    const int lo = static_cast<int>((i * 157) % 2400);
    const int lo2 = static_cast<int>((i * 311 + 500) % 2400);
    switch (i % 3) {
      case 0:
        scripts.push_back("R0 = select x >= " + std::to_string(lo) +
                          ", x <= " + std::to_string(lo + 400) +
                          " from Boxes\n"
                          "R1 = project R0 on y");
        break;
      case 1:
        scripts.push_back("R0 = select y >= " + std::to_string(lo) +
                          ", y <= " + std::to_string(lo + 300) +
                          " from Boxes");
        break;
      default:
        scripts.push_back("R0 = select x >= " + std::to_string(lo) +
                          ", x <= " + std::to_string(lo + 250) +
                          " from Boxes\n"
                          "R1 = select y >= " + std::to_string(lo2) +
                          ", y <= " + std::to_string(lo2 + 250) +
                          " from Boxes\n"
                          "R2 = join R0 and R1");
        break;
    }
  }
  return scripts;
}

/// Serial reference: the same per-session script sequence run by the
/// plain single-threaded executor, steps accumulating like a session.
std::vector<std::string> SerialResults(const Relation& boxes,
                                       const std::vector<std::string>& seq) {
  Database db;
  EXPECT_TRUE(db.Create("Boxes", boxes).ok());
  std::vector<std::string> rendered;
  for (const std::string& script : seq) {
    auto last = lang::ExecuteScript(script, &db);
    EXPECT_TRUE(last.ok()) << last.status().ToString();
    auto rel = db.Get(*last);
    EXPECT_TRUE(rel.ok());
    rendered.push_back((*rel)->ToString());
  }
  return rendered;
}

TEST(QueryServiceStressTest, ParallelMatchesSerial) {
  const Relation boxes = BoxRelation(150, 7);
  Database base;
  ASSERT_TRUE(base.Create("Boxes", boxes).ok());

  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 256;
  QueryService service(&base, options);

  const size_t kSessions = 4;
  const size_t kQueriesPerSession = 12;
  // Sessions share most scripts but start at different offsets, so the
  // same script runs in several sessions at once.
  const std::vector<std::string> scripts = MakeScripts(16);

  std::vector<std::vector<std::string>> sequences(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    for (size_t q = 0; q < kQueriesPerSession; ++q) {
      sequences[s].push_back(scripts[(s * 3 + q) % scripts.size()]);
    }
  }

  std::vector<std::vector<std::string>> got(kSessions);
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      SessionId id = service.OpenSession();
      for (const std::string& script : sequences[s]) {
        auto response = service.Execute(id, script);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        got[s].push_back(response->relation.ToString());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t s = 0; s < kSessions; ++s) {
    std::vector<std::string> want = SerialResults(boxes, sequences[s]);
    ASSERT_EQ(got[s].size(), want.size());
    for (size_t q = 0; q < want.size(); ++q) {
      EXPECT_EQ(got[s][q], want[q])
          << "session " << s << " query " << q << " diverged from serial";
    }
  }

  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.completed, kSessions * kQueriesPerSession);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.rejected, 0u);
}

/// Holds each caller until `expected` callers are inside at once. A
/// bounded wait: a caller gives up after 10 s, so a test whose workers
/// never all arrive fails instead of hanging.
class Rendezvous {
 public:
  explicit Rendezvous(size_t expected) : expected_(expected) {}

  /// False when the wait timed out before `expected` callers arrived.
  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ >= expected_) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return arrived_ >= expected_; });
  }

 private:
  const size_t expected_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
};

TEST(QueryServiceTest, QueueOverflowRejectsWithUnavailable) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 2;
  options.start_paused = true;
  QueryService service(&base, options);
  SessionId id = service.OpenSession();

  auto f1 = service.Submit(id, "R0 = select x >= 0 from Boxes");
  auto f2 = service.Submit(id, "R0 = select x >= 1 from Boxes");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  auto f3 = service.Submit(id, "R0 = select x >= 2 from Boxes");
  ASSERT_FALSE(f3.ok());
  EXPECT_EQ(f3.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(f3.status().retry_after_ms(), 0)
      << "a shed submission must carry a backoff hint";

  service.Resume();
  EXPECT_TRUE(f1->future.get().ok());
  EXPECT_TRUE(f2->future.get().ok());

  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.sheds, 1u);
  EXPECT_EQ(m.queue_high_water, 2u);
}

TEST(QueryServiceTest, ShutdownCancelsQueuedQueriesWithTypedStatus) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 8;
  options.start_paused = true;
  QueryService service(&base, options);
  SessionId id = service.OpenSession();

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    auto f = service.Submit(
        id, "R0 = select x >= " + std::to_string(i) + " from Boxes");
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(f->future));
  }

  // Queued-but-not-running work is cancelled, not silently dropped: every
  // caller's future resolves with a typed kCancelled.
  service.Shutdown();
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kCancelled)
        << response.status().ToString();
  }
  EXPECT_EQ(service.Metrics().cancels, 3u);

  auto after = service.Submit(id, "R0 = select x >= 9 from Boxes");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(QueryServiceTest, SequentialQueriesRunOnOneWorker) {
  // One closed-loop client: each query waits for the previous reply, so
  // the worker that answered it is the most recently idle one and must
  // take the next query too, on caches the last query warmed.
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  ServiceOptions options;
  options.num_workers = 4;
  Rendezvous warmup(options.num_workers);
  std::atomic<bool> warm{false};
  std::atomic<size_t> warmup_timeouts{0};
  std::mutex threads_mu;
  std::set<std::thread::id> threads;
  options.execution_hook = [&](const std::string&) {
    if (!warm.load()) {
      if (!warmup.ArriveAndWait()) ++warmup_timeouts;
      return;
    }
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.insert(std::this_thread::get_id());
  };
  QueryService service(&base, options);

  // Every worker runs one query, all at once, so each thread has started
  // and gone idle before the sequential client begins.
  std::vector<std::future<Result<QueryResponse>>> warmups;
  for (size_t w = 0; w < options.num_workers; ++w) {
    auto submitted =
        service.Submit(service.OpenSession(), "R0 = select x >= 0 from Boxes");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    warmups.push_back(std::move(submitted->future));
  }
  for (auto& f : warmups) ASSERT_TRUE(f.get().ok());
  ASSERT_EQ(warmup_timeouts.load(), 0u);
  warm = true;

  SessionId id = service.OpenSession();
  for (int i = 0; i < 500; ++i) {
    auto response = service.Execute(
        id, "R0 = select x >= " + std::to_string(i % 50) + " from Boxes");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  std::lock_guard<std::mutex> lock(threads_mu);
  EXPECT_EQ(threads.size(), 1u)
      << "500 sequential queries of one session ran on " << threads.size()
      << " worker threads";
}

TEST(QueryServiceTest, ConcurrentQueriesUseEveryWorker) {
  // Four sessions submit at once and every query holds its worker until
  // all four are inside: only four workers running at once can finish
  // them. A fifth submission queues behind them and completes after.
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  ServiceOptions options;
  options.num_workers = 4;
  // The four queries and the test thread.
  Rendezvous all_inside(options.num_workers + 1);
  std::atomic<size_t> timeouts{0};
  std::mutex release_mu;
  std::condition_variable release_cv;
  bool released = false;
  options.execution_hook = [&](const std::string&) {
    if (!all_inside.ArriveAndWait()) ++timeouts;
    std::unique_lock<std::mutex> lock(release_mu);
    release_cv.wait_for(lock, std::chrono::seconds(10),
                        [&] { return released; });
  };
  QueryService service(&base, options);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t s = 0; s < options.num_workers; ++s) {
    auto submitted = service.Submit(
        service.OpenSession(),
        "R0 = select x >= " + std::to_string(s) + " from Boxes");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted->future));
  }
  // Returns once the four queries are inside their workers.
  EXPECT_TRUE(all_inside.ArriveAndWait())
      << "fewer than 4 workers ran 4 concurrent queries";
  auto fifth =
      service.Submit(service.OpenSession(), "R0 = select x >= 9 from Boxes");
  ASSERT_TRUE(fifth.ok()) << fifth.status().ToString();
  EXPECT_EQ(service.Metrics().queue_depth, 1u)
      << "with every worker busy the fifth query waits in the queue";
  {
    std::lock_guard<std::mutex> lock(release_mu);
    released = true;
  }
  release_cv.notify_all();
  futures.push_back(std::move(fifth->future));
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(timeouts.load(), 0u);
  EXPECT_EQ(service.Metrics().completed, 5u);
}

TEST(QueryServiceTest, QueueWaitIsRecordedPerQuery) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 3)).ok());
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(&base, options);
  SessionId id = service.OpenSession();
  const uint64_t kQueries = 7;
  for (uint64_t i = 0; i < kQueries; ++i) {
    auto response = service.Execute(
        id, "R0 = select x >= " + std::to_string(i) + " from Boxes");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }

  obs::MetricsRegistry::Snapshot snapshot = service.MetricsSnapshot();
  auto hist = std::find_if(
      snapshot.histograms.begin(), snapshot.histograms.end(),
      [](const obs::Histogram::Snapshot& h) {
        return h.name == obs::names::kQueryQueueWaitUs;
      });
  ASSERT_NE(hist, snapshot.histograms.end());
  EXPECT_EQ(hist->count, kQueries);
  const std::string text = obs::RenderPrometheus(snapshot);
  EXPECT_NE(text.find("ccdb_query_queue_wait_us_count " +
                      std::to_string(kQueries)),
            std::string::npos)
      << text;
}

TEST(QueryServiceTest, FailedScriptRegistersNoStep) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(30, 5)).ok());
  QueryService service(&base, {});
  SessionId id = service.OpenSession();

  // Lines 1-2 are fine; line 3 is ill-typed. The script fails as a whole
  // and leaves the session as it was. Its error names the client's line,
  // counting comment and blank lines.
  const std::string script =
      "R0 = select x >= 0, x <= 500 from Boxes\n"
      "R1 = project R0 on y\n"
      "R2 = union R0 and R1";
  for (const auto& [text, line] :
       {std::pair<std::string, std::string>{script, "line 3: "},
        {"# steps of one query\n\n" + script, "line 5: "}}) {
    auto failed = service.Execute(id, text);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(failed.status().message().rfind(line, 0), 0u)
        << failed.status().ToString();
    for (const char* step : {"R0", "R1", "R2"}) {
      EXPECT_FALSE(service.GetRelation(id, step).ok()) << step;
    }
  }
}

/// Selections that read token adjacency: a fraction and coefficients,
/// touching their numbers and variables.
constexpr const char* kAdjacentScripts[] = {
    "R0 = select x <= 1801/2 from Boxes",
    "R0 = select 2x + y <= 3000 from Boxes",
    "R0 = select x + 3/2y <= 2500 from Boxes",
};

TEST(QueryServiceTest, FractionsAndCoefficientsAnswerLikeRunQuery) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(30, 5)).ok());
  QueryService service(&base, {});
  SessionId id = service.OpenSession();
  for (const char* script : kAdjacentScripts) {
    Database local = base;
    auto want = lang::RunQuery(script, &local);
    ASSERT_TRUE(want.ok()) << script << ": " << want.status().ToString();
    EXPECT_GT(want->size(), 0u) << script;
    auto served = service.Execute(id, script);
    ASSERT_TRUE(served.ok()) << script << ": " << served.status().ToString();
    EXPECT_EQ(served->relation.ToString(), want->ToString()) << script;
  }
  // The same tokens spaced apart are parse errors, served as locally.
  for (const char* spaced : {"R0 = select x <= 3 / 2 from Boxes",
                             "R0 = select 2 x <= 1000 from Boxes"}) {
    Database local = base;
    auto want = lang::RunQuery(spaced, &local);
    ASSERT_FALSE(want.ok()) << spaced;
    EXPECT_EQ(want.status().code(), StatusCode::kParseError) << spaced;
    auto refused = service.Execute(id, spaced);
    ASSERT_FALSE(refused.ok()) << spaced;
    EXPECT_EQ(refused.status().ToString(), want.status().ToString());
  }
}

TEST(QueryServiceTest, SessionStepsAreIsolatedAndUncached) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(30, 5)).ok());
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(&base, options);

  SessionId a = service.OpenSession();
  SessionId b = service.OpenSession();
  ASSERT_TRUE(
      service.Execute(a, "S0 = select x >= 0, x <= 500 from Boxes").ok());
  ASSERT_TRUE(
      service.Execute(b, "S0 = select x >= 2000, x <= 2900 from Boxes").ok());

  auto in_a = service.Execute(a, "S1 = project S0 on x");
  auto in_b = service.Execute(b, "S1 = project S0 on x");
  ASSERT_TRUE(in_a.ok());
  ASSERT_TRUE(in_b.ok());
  EXPECT_NE(in_a->relation.ToString(), in_b->relation.ToString())
      << "sessions must not see each other's steps";

  // A script registers its final step in its session; its intermediate
  // step stays local to the script.
  ASSERT_TRUE(service
                  .Execute(a, "R0 = select x >= 100, x <= 900 from Boxes\n"
                              "R1 = project R0 on y")
                  .ok());
  auto followup = service.Execute(a, "R2 = select y >= 0 from R1");
  EXPECT_TRUE(followup.ok()) << followup.status().ToString();
  auto intermediate = service.Execute(a, "R3 = project R0 on x");
  EXPECT_EQ(intermediate.status().code(), StatusCode::kNotFound)
      << intermediate.status().ToString();
  EXPECT_EQ(service.GetRelation(b, "R1").status().code(),
            StatusCode::kNotFound);

  // Step results are visible to the owning session's front-end reads only.
  EXPECT_TRUE(service.GetRelation(a, "S1").ok());
  auto names = service.VisibleNames(a);
  EXPECT_NE(std::find(names.begin(), names.end(), "S0"), names.end());
  ASSERT_TRUE(service.CloseSession(b).ok());
  EXPECT_FALSE(service.GetRelation(b, "S1").ok());
  EXPECT_EQ(service.Metrics().sessions, 1u);
}

TEST(QueryServiceTest, UnknownSessionAndBadScriptFail) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 2)).ok());
  QueryService service(&base, {});
  auto bad_session = service.Submit(12345, "R0 = select x >= 0 from Boxes");
  EXPECT_EQ(bad_session.status().code(), StatusCode::kNotFound);

  SessionId id = service.OpenSession();
  auto bad_script = service.Execute(id, "R0 = frobnicate Boxes");
  ASSERT_FALSE(bad_script.ok());
  EXPECT_EQ(service.Metrics().failed, 1u);
}

TEST(LatencyRecorderTest, SummaryOverSamples) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.Summarize().count, 0u);
  for (int i = 1; i <= 100; ++i) recorder.Record(static_cast<double>(i));
  LatencyRecorder::Summary s = recorder.Summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min_us, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_us, 50.5);
  EXPECT_NEAR(s.p50_us, 50.0, 1.0);
  EXPECT_NEAR(s.p99_us, 99.0, 1.0);
}

TEST(LatencyRecorderTest, WrappedWindowMatchesSortedReference) {
  // 10,000 samples wrap the 4,096-sample window more than twice; the
  // percentiles must be the nearest ranks of the newest kWindow samples.
  LatencyRecorder recorder;
  std::mt19937 rng(26);
  std::uniform_real_distribution<double> dist(1.0, 5000.0);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(dist(rng));
    recorder.Record(samples.back());
  }
  std::vector<double> window(samples.end() - LatencyRecorder::kWindow,
                             samples.end());
  std::sort(window.begin(), window.end());
  LatencyRecorder::Summary s = recorder.Summarize();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_DOUBLE_EQ(s.min_us, *std::min_element(samples.begin(), samples.end()));
  // Nearest ranks ceil(0.5 * 4096) = 2048 and ceil(0.99 * 4096) = 4056.
  EXPECT_DOUBLE_EQ(s.p50_us, window[2048 - 1]);
  EXPECT_DOUBLE_EQ(s.p99_us, window[4056 - 1]);
}

TEST(ServiceMetricsTest, ToStringMentionsEveryGroup) {
  ServiceMetrics m;
  m.submitted = 10;
  m.workers = 4;
  std::string text = m.ToString();
  EXPECT_NE(text.find("queries:"), std::string::npos);
  EXPECT_NE(text.find("txn:"), std::string::npos);
  EXPECT_NE(text.find("latency:"), std::string::npos);
  EXPECT_NE(text.find("storage:"), std::string::npos);
  EXPECT_NE(text.find("wal:"), std::string::npos);
}

TEST(ServiceMetricsTest, NearestRankPercentileIsPinned) {
  // The classic nearest-rank reference set: rank = ceil(fraction * N).
  const std::vector<double> samples = {15, 20, 35, 40, 50};
  EXPECT_DOUBLE_EQ(NearestRankPercentile(samples, 0.05), 15.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(samples, 0.30), 20.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(samples, 0.40), 20.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(samples, 0.50), 35.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(samples, 1.00), 50.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({}, 0.50), 0.0);

  std::vector<double> one_to_hundred;
  for (int i = 1; i <= 100; ++i) one_to_hundred.push_back(i);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(one_to_hundred, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(one_to_hundred, 0.99), 99.0);
}

TEST(QueryServiceTest, ThrowingStatementFailsRequestNotService) {
  // The hook throws from inside the worker thread, mid-request — the
  // worker's exception barrier must fail that request and keep serving.
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 2)).ok());
  ServiceOptions options;
  options.num_workers = 1;
  options.execution_hook = [](const std::string& script) {
    if (script.find("Trap") != std::string::npos) {
      throw std::runtime_error("deliberate test explosion");
    }
  };
  QueryService service(&base, options);
  SessionId id = service.OpenSession();

  auto boom = service.Execute(id, "R0 = select x >= 0 from Trap");
  ASSERT_FALSE(boom.ok());
  EXPECT_EQ(boom.status().code(), StatusCode::kInternal);
  EXPECT_NE(boom.status().ToString().find("uncaught exception"),
            std::string::npos)
      << boom.status().ToString();

  // The worker survived: the same service keeps serving.
  auto fine = service.Execute(id, "R0 = select x >= 0 from Boxes");
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(service.Metrics().failed, 1u);
  EXPECT_EQ(service.Metrics().completed, 1u);
}

TEST(QueryServiceTest, DurableCatalogWritesSurviveReopen) {
  PageManager disk;
  PageId wal_root = kInvalidPageId;
  std::vector<std::string> names;
  std::string kept_text;
  {
    auto store = DurableStore::Create(&disk);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    wal_root = (*store)->wal_root();
    Database base;
    ServiceOptions options;
    options.num_workers = 1;
    options.store = store->get();
    QueryService service(&base, options);

    ASSERT_TRUE(service.CreateRelation("Kept", BoxRelation(12, 3)).ok());
    ASSERT_TRUE(service.CreateRelation("Doomed", BoxRelation(6, 4)).ok());
    ASSERT_TRUE(service.ReplaceRelation("Kept", BoxRelation(20, 5)).ok());
    ASSERT_TRUE(service.DropRelation("Doomed").ok());

    // The service owns its catalog: read the committed state back through
    // it, not through the seed `base` (which it never mutates).
    Database committed = service.CloneBase();
    names = committed.Names();
    kept_text = (*committed.Get("Kept"))->ToString();
    EXPECT_TRUE(base.Names().empty()) << "service writes must not touch base";

    ServiceMetrics m = service.Metrics();
    EXPECT_EQ(m.wal_batches, 4u);
    EXPECT_GT(m.wal_bytes, 0u);
    EXPECT_GE(m.wal_fsyncs, 4u);
  }
  // "Reboot": reopen the store from the disk and the WAL root alone.
  auto reopened = DurableStore::Open(&disk, wal_root);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto loaded = (*reopened)->LoadCatalog();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Names(), names);
  ASSERT_TRUE(loaded->Get("Kept").ok());
  EXPECT_EQ((*loaded->Get("Kept"))->ToString(), kept_text);
  EXPECT_FALSE(loaded->Has("Doomed"));
}

TEST(QueryServiceTest, AutocommitCountsOneWrittenAndTheRestReused) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Database base;
  ServiceOptions options;
  options.num_workers = 1;
  options.store = store->get();
  QueryService service(&base, options);
  constexpr uint64_t kUntouched = 5;
  for (uint64_t i = 0; i < kUntouched; ++i) {
    ASSERT_TRUE(service
                    .CreateRelation("U" + std::to_string(i),
                                    BoxRelation(6, 20 + i))
                    .ok());
  }

  const ServiceMetrics before = service.Metrics();
  ASSERT_TRUE(service.CreateRelation("Live", BoxRelation(4, 40)).ok());
  const ServiceMetrics after = service.Metrics();
  EXPECT_EQ(after.wal_relations_written - before.wal_relations_written, 1u);
  EXPECT_EQ(after.wal_relations_reused - before.wal_relations_reused,
            kUntouched);

  // The same totals reach the registry and the \metrics text.
  const obs::MetricsRegistry::Snapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.Value(obs::names::kWalRelationsWritten),
            after.wal_relations_written);
  EXPECT_EQ(snap.Value(obs::names::kWalRelationsReused),
            after.wal_relations_reused);
  const std::string reused = std::to_string(after.wal_relations_reused);
  EXPECT_NE(after.ToString().find(" relations written, " + reused +
                                  " reused"),
            std::string::npos)
      << after.ToString();
}

TEST(QueryServiceTest, FailedCommitRollsBackCatalogInMemory) {
  // Regression: a WAL-failed commit must leave the published catalog —
  // epoch AND per-name version counters — exactly as it found them. The
  // candidate snapshot (with its bumped counters) is discarded unpublished;
  // nothing needs un-doing.
  FaultInjectingPager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Database base;
  ServiceOptions options;
  options.num_workers = 1;
  options.store = store->get();
  QueryService service(&base, options);
  EXPECT_EQ(service.CatalogEpoch(), 1u);

  disk.Arm(FaultInjectingPager::Fault::kCrash, 0);
  Status failed = service.CreateRelation("Boxes", BoxRelation(8, 6));
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(service.CloneBase().Has("Boxes"))
      << "unacknowledged create must roll back";
  EXPECT_EQ(service.CatalogEpoch(), 1u) << "failed commit must not publish";

  disk.ClearFault();
  ASSERT_TRUE(service.CreateRelation("Boxes", BoxRelation(8, 6)).ok());
  EXPECT_TRUE(service.CloneBase().Has("Boxes"));
  EXPECT_EQ(service.CatalogEpoch(), 2u);

  // Failed replace keeps the committed relation, which the next query
  // reads...
  SessionId id = service.OpenSession();
  const std::string script = "R0 = select x >= 0 from Boxes";
  auto before = service.Execute(id, script);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t version = service.CloneBase().Version("Boxes");
  disk.Arm(FaultInjectingPager::Fault::kFail, 0);
  ASSERT_FALSE(service.ReplaceRelation("Boxes", BoxRelation(3, 7)).ok());
  auto after = service.Execute(id, script);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->relation.ToString(), before->relation.ToString());
  EXPECT_EQ(service.CatalogEpoch(), 2u);
  // ...and its version counter exactly.
  EXPECT_EQ(service.CloneBase().Version("Boxes"), version);

  // Failed drop keeps it too (kFail is transient: no ClearFault needed).
  disk.Arm(FaultInjectingPager::Fault::kFail, 0);
  ASSERT_FALSE(service.DropRelation("Boxes").ok());
  EXPECT_TRUE(service.CloneBase().Has("Boxes"));
  EXPECT_EQ(service.CatalogEpoch(), 2u);

  // A replace that commits is read by the next query.
  ASSERT_TRUE(service.ReplaceRelation("Boxes", BoxRelation(3, 7)).ok());
  EXPECT_EQ(service.CloneBase().Version("Boxes"), version + 1);
  auto replaced = service.Execute(id, script);
  ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  EXPECT_NE(replaced->relation.ToString(), before->relation.ToString());
}

TEST(QueryServiceTest, CheckpointRequiresStoreAndCounts) {
  Database plain;
  QueryService storeless(&plain, {});
  EXPECT_EQ(storeless.Checkpoint().code(), StatusCode::kUnavailable);

  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  Database base;
  ServiceOptions options;
  options.store = store->get();
  QueryService service(&base, options);
  ASSERT_TRUE(service.CreateRelation("Boxes", BoxRelation(5, 8)).ok());
  ASSERT_TRUE(service.Checkpoint().ok());
  EXPECT_EQ(service.Metrics().wal_checkpoints, 1u);
}

/// `count` stores whose exact x box needs FM: x + y <= i,
/// y >= 10 + i mod 13, x >= -(i mod 17), so x <= i - 10 - i mod 13.
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
    t.AddConstraint(Constraint::Ge(y, k(10 + i % 13)));
    t.AddConstraint(Constraint::Ge(x, k(-(i % 17))));
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

TEST(QueryServiceTest, ConcurrentFirstReadersOfOneVersionAgree) {
  // Eight workers run one Select at once against one snapshot whose box
  // cache is cold: each may build the boxes, one vector is published,
  // and every result matches a serial run on a fresh relation.
  constexpr size_t kTuples = 120;
  constexpr size_t kReaders = 8;
  Database base;
  ASSERT_TRUE(base.Create("Shapes", MultiVariableRelation(kTuples)).ok());
  ServiceOptions options;
  options.num_workers = kReaders;
  options.start_paused = true;
  QueryService service(&base, options);
  const std::string script = "R0 = select x >= 40 from Shapes";
  Predicate pred;
  pred.linear = {Constraint::Ge(LinearExpr::Variable("x"),
                                LinearExpr::Constant(Rational(40)))};
  auto reference = cqa::Select(MultiVariableRelation(kTuples), pred);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->size(), 0u);
  ASSERT_LT(reference->size(), kTuples);

  uint64_t built_cold = 0;
  for (int round = 0; round < 2; ++round) {  // cold, then warm
    std::vector<std::future<Result<QueryResponse>>> futures;
    for (size_t i = 0; i < kReaders; ++i) {
      auto submitted = service.Submit(service.OpenSession(), script);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(submitted->future));
    }
    if (round == 0) service.Resume();
    for (auto& future : futures) {
      Result<QueryResponse> response = future.get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(response->relation.tuples() == reference->tuples());
    }
    // The cold round built at least once and at most once per reader;
    // the warm round read the published vector.
    const uint64_t built = service.Metrics().engine.boxes_built;
    if (round == 0) {
      EXPECT_GE(built, kTuples);
      EXPECT_LE(built, kTuples * kReaders);
      EXPECT_EQ(built % kTuples, 0u);
      built_cold = built;
    } else {
      EXPECT_EQ(built, built_cold);
    }
  }
}

}  // namespace
}  // namespace ccdb::service
