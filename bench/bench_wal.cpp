// Write-ahead-log throughput and recovery cost.
//
// Measures the durability subsystem (`storage/wal.h`):
//   1. commit throughput (commits/s and log MB/s) of `DurableStore::
//      CommitCatalog` as the catalog grows — ablated over relation size;
//   2. the checkpoint-interval ablation: frequent truncation keeps the log
//      chain short at the cost of extra header/zeroing writes;
//   3. recovery: wall-clock time for `DurableStore::Open` to replay N
//      committed batches after a simulated crash;
//   4. the catalog-size sweep: replacing a 1-tuple relation beside N
//      untouched 300-box relations. Commits are incremental, so the cost
//      per commit should not grow with N.
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

constexpr const char* kBench = "bench_wal";

Relation BoxRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct CommitRun {
  double commits_per_sec = 0;
  double log_mb_per_sec = 0;
  double log_pages = 0;
  double fsyncs = 0;
};

/// `commits` catalog commits, each replacing one relation of `boxes`
/// boxes; checkpoints every `checkpoint_every` commits (0 = never).
CommitRun RunCommits(size_t boxes, int commits, int checkpoint_every) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return {};
  }
  Database db;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < commits; ++i) {
    db.CreateOrReplace("R", BoxRelation(boxes, static_cast<uint64_t>(i + 1)));
    Status committed = (*store)->CommitCatalog(db);
    if (!committed.ok()) {
      std::fprintf(stderr, "%s\n", committed.ToString().c_str());
      return {};
    }
    if (checkpoint_every > 0 && (i + 1) % checkpoint_every == 0) {
      Status ckpt = (*store)->Checkpoint();
      if (!ckpt.ok()) {
        std::fprintf(stderr, "%s\n", ckpt.ToString().c_str());
        return {};
      }
    }
  }
  const double seconds = SecondsSince(start);
  WalStats stats = (*store)->stats();
  CommitRun out;
  out.commits_per_sec = commits / seconds;
  out.log_mb_per_sec =
      static_cast<double>(stats.bytes_appended) / (1024.0 * 1024.0) / seconds;
  out.log_pages = static_cast<double>((*store)->stats().bytes_appended /
                                      WriteAheadLog::kPayloadSize);
  out.fsyncs = static_cast<double>(stats.fsyncs);
  return out;
}

struct SweepRun {
  double commits_per_sec = 0;
  double wal_kb_per_commit = 0;
  double pages_on_disk = 0;
};

/// Commits `untouched` 300-box relations once (untimed), then times
/// `commits` commits that each replace a 1-tuple relation beside them.
SweepRun RunUntouched(size_t untouched, int commits) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return {};
  }
  Database db;
  for (size_t i = 0; i < untouched; ++i) {
    db.CreateOrReplace("U" + std::to_string(i), BoxRelation(300, 100 + i));
  }
  db.CreateOrReplace("Live", BoxRelation(1, 1));
  Status seeded = (*store)->CommitCatalog(db);
  if (!seeded.ok()) {
    std::fprintf(stderr, "%s\n", seeded.ToString().c_str());
    return {};
  }
  const uint64_t bytes0 = (*store)->stats().bytes_appended;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < commits; ++i) {
    db.CreateOrReplace("Live", BoxRelation(1, static_cast<uint64_t>(i + 2)));
    Status committed = (*store)->CommitCatalog(db);
    if (!committed.ok()) {
      std::fprintf(stderr, "%s\n", committed.ToString().c_str());
      return {};
    }
  }
  const double seconds = SecondsSince(start);
  SweepRun out;
  out.commits_per_sec = commits / seconds;
  out.wal_kb_per_commit =
      static_cast<double>((*store)->stats().bytes_appended - bytes0) /
      1024.0 / commits;
  out.pages_on_disk = static_cast<double>(disk.num_pages());
  return out;
}

}  // namespace
}  // namespace ccdb::bench

int main(int argc, char** argv) {
  using namespace ccdb;         // NOLINT: benchmark brevity
  using namespace ccdb::bench;  // NOLINT
  ParseBenchFlags(argc, argv);

  constexpr int kCommits = 40;

  if (!JsonOutputEnabled()) {
    std::printf("WAL commit throughput — %d catalog commits per config\n",
                kCommits);
  }

  // 1. Commit throughput vs relation size (checkpointing off).
  for (size_t boxes : {8u, 32u, 128u}) {
    CommitRun r = RunCommits(boxes, kCommits, /*checkpoint_every=*/0);
    const std::string name = "commit_throughput_b" + std::to_string(boxes);
    EmitResult(kBench, name.c_str(), r.commits_per_sec, "commits/s",
               {{"boxes", static_cast<double>(boxes)},
                {"log_mb_per_sec", r.log_mb_per_sec},
                {"fsyncs", r.fsyncs}});
  }

  // 2. Checkpoint-interval ablation at a fixed relation size.
  for (int every : {0, 4, 16}) {
    CommitRun r = RunCommits(/*boxes=*/32, kCommits, every);
    const std::string name =
        every == 0 ? std::string("checkpoint_never")
                   : "checkpoint_every_" + std::to_string(every);
    EmitResult(kBench, name.c_str(), r.commits_per_sec, "commits/s",
               {{"checkpoint_every", static_cast<double>(every)},
                {"log_mb_per_sec", r.log_mb_per_sec}});
  }

  // 3. Recovery: replay N batches at open.
  for (int batches : {10, 40}) {
    PageManager disk;
    auto store = DurableStore::Create(&disk);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    Database db;
    for (int i = 0; i < batches; ++i) {
      db.CreateOrReplace("R" + std::to_string(i % 4),
                         BoxRelation(32, static_cast<uint64_t>(i + 1)));
      Status committed = (*store)->CommitCatalog(db);
      if (!committed.ok()) {
        std::fprintf(stderr, "%s\n", committed.ToString().c_str());
        return 1;
      }
    }
    const PageId root = (*store)->wal_root();
    const auto start = std::chrono::steady_clock::now();
    auto reopened = DurableStore::Open(&disk, root);
    const double seconds = SecondsSince(start);
    if (!reopened.ok()) {
      std::fprintf(stderr, "%s\n", reopened.status().ToString().c_str());
      return 1;
    }
    const std::string name = "recovery_time_n" + std::to_string(batches);
    EmitResult(
        kBench, name.c_str(), seconds * 1e3, "ms",
        {{"batches",
          static_cast<double>((*reopened)->stats().batches_recovered)},
         {"batches_per_sec", seconds > 0 ? batches / seconds : 0}});
  }

  // 4. Catalog-size sweep: one small replace beside N untouched relations.
  for (size_t untouched : {1u, 4u, 16u}) {
    SweepRun r = RunUntouched(untouched, kCommits);
    const std::string name =
        "commit_untouched_n" + std::to_string(untouched);
    EmitResult(kBench, name.c_str(), r.commits_per_sec, "commits/s",
               {{"untouched", static_cast<double>(untouched)},
                {"wal_kb_per_commit", r.wal_kb_per_commit},
                {"pages_on_disk", r.pages_on_disk}});
  }
  return 0;
}
