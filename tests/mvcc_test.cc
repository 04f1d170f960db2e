// MVCC catalog and transaction tests.
//
// Covers the snapshot layer (immutable `CatalogSnapshot` chain, copy-on-
// write `CatalogEdit`, `MvccCatalog` publication, `SnapshotReadView`
// overlays), the query service's BEGIN/COMMIT/ROLLBACK transactions
// (read-your-writes, isolation, first-committer-wins conflicts, atomic
// WAL-batch commits), the regression pins for the failed-commit version
// restore and the result-cache version-stamp TOCTOU, a service-level
// crash matrix (transaction atomicity at every I/O fault point), and an
// N-writers x M-readers stress with a torn-snapshot detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/snapshot.h"
#include "data/workload.h"
#include "lang/query.h"
#include "service/query_service.h"
#include "storage/fault.h"
#include "storage/wal.h"

namespace ccdb {
namespace {

Relation BoxRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

std::shared_ptr<const Relation> SharedBoxes(size_t count, uint64_t seed) {
  return std::make_shared<const Relation>(BoxRelation(count, seed));
}

// ---------------------------------------------------------------------
// Snapshot layer units
// ---------------------------------------------------------------------

TEST(SnapshotTest, EmptyAndFromDatabasePreserveVersions) {
  SnapshotPtr empty = CatalogSnapshot::Empty();
  EXPECT_EQ(empty->epoch(), 1u);
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(empty->Version("A"), 0u);
  EXPECT_EQ(empty->Find("A"), nullptr);

  Database db;
  ASSERT_TRUE(db.Create("A", BoxRelation(5, 1)).ok());
  db.CreateOrReplace("A", BoxRelation(6, 2));  // version 2
  ASSERT_TRUE(db.Create("B", BoxRelation(4, 3)).ok());
  SnapshotPtr snap = CatalogSnapshot::FromDatabase(db);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->Version("A"), 2u);
  EXPECT_EQ(snap->Version("B"), 1u);
  EXPECT_EQ(snap->Names(), (std::vector<std::string>{"A", "B"}));
  ASSERT_NE(snap->Find("A"), nullptr);
  EXPECT_EQ(snap->Find("A")->ToString(), (*db.Get("A"))->ToString());
}

TEST(SnapshotTest, EditsShareUntouchedRelationsAndBumpTouched) {
  Database seed;
  ASSERT_TRUE(seed.Create("A", BoxRelation(5, 1)).ok());
  ASSERT_TRUE(seed.Create("B", BoxRelation(5, 2)).ok());
  SnapshotPtr base = CatalogSnapshot::FromDatabase(seed);

  CatalogEdit edit(base);
  edit.CreateOrReplace("B", SharedBoxes(9, 9));
  ASSERT_TRUE(edit.Create("C", BoxRelation(3, 4)).ok());
  EXPECT_EQ(edit.Create("A", BoxRelation(1, 1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(edit.dirty());
  EXPECT_EQ(edit.touched(), (std::set<std::string>{"B", "C"}));

  std::shared_ptr<CatalogSnapshot> next = edit.Build();
  EXPECT_EQ(next->epoch(), 0u) << "unpublished candidates carry epoch 0";
  // Untouched relation: the same object, not a copy.
  EXPECT_EQ(next->Find("A"), base->Find("A"));
  EXPECT_NE(next->Find("B"), base->Find("B"));
  EXPECT_EQ(next->Version("A"), base->Version("A"));
  EXPECT_EQ(next->Version("B"), base->Version("B") + 1);
  EXPECT_EQ(next->Version("C"), 1u);
}

TEST(SnapshotTest, DiscardedEditLeavesNoTrace) {
  MvccCatalog catalog;
  Database seed;
  ASSERT_TRUE(seed.Create("R", BoxRelation(5, 1)).ok());
  catalog.Seed(seed);
  SnapshotPtr before = catalog.Snapshot();
  {
    CatalogEdit edit(before);
    edit.CreateOrReplace("R", SharedBoxes(7, 2));
    ASSERT_TRUE(edit.Create("S", BoxRelation(3, 3)).ok());
    std::shared_ptr<CatalogSnapshot> built = edit.Build();
    EXPECT_EQ(built->Version("R"), 2u);
    // ...and the candidate dies here, unpublished.
  }
  EXPECT_EQ(catalog.Snapshot().get(), before.get());
  EXPECT_EQ(before->Version("R"), 1u);
  EXPECT_FALSE(before->Has("S"));
  EXPECT_EQ(catalog.epoch(), 1u);
}

TEST(SnapshotTest, PublicationStampsStrictlyIncreasingEpochs) {
  MvccCatalog catalog;
  EXPECT_EQ(catalog.epoch(), 1u);
  SnapshotPtr pinned = catalog.Snapshot();

  CatalogEdit create(pinned);
  ASSERT_TRUE(create.Create("A", BoxRelation(3, 1)).ok());
  SnapshotPtr p1 = catalog.PublishSnapshot(create.Build());
  EXPECT_EQ(p1->epoch(), 2u);
  EXPECT_EQ(catalog.epoch(), 2u);

  // The pin taken before the publish is frozen at the old state.
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->size(), 0u);

  CatalogEdit drop(p1);
  ASSERT_TRUE(drop.Drop("A").ok());
  EXPECT_EQ(drop.Drop("A").code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.PublishSnapshot(drop.Build())->epoch(), 3u);

  // The version counter survives the drop (never repeats on recreate).
  SnapshotPtr now = catalog.Snapshot();
  EXPECT_FALSE(now->Has("A"));
  EXPECT_EQ(now->Version("A"), 0u);
  EXPECT_EQ(now->VersionCounter("A"), 2u);
}

TEST(SnapshotTest, ReadViewOverlaysStagedWrites) {
  Database seed;
  ASSERT_TRUE(seed.Create("A", BoxRelation(5, 1)).ok());
  ASSERT_TRUE(seed.Create("B", BoxRelation(5, 2)).ok());
  SnapshotPtr snap = CatalogSnapshot::FromDatabase(seed);

  StagedWrites staged;
  staged["B"] = nullptr;  // dropped in this transaction
  staged["C"] = SharedBoxes(7, 3);

  SnapshotReadView view(snap, &staged);
  EXPECT_TRUE(view.Has("A"));
  EXPECT_FALSE(view.Has("B"));
  EXPECT_TRUE(view.Has("C"));
  EXPECT_EQ(view.Names(), (std::vector<std::string>{"A", "C"}));
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.Version("A"), 1u);
  EXPECT_EQ(view.Version("B"), 0u) << "a staged drop reads as unbound";
  EXPECT_EQ(view.Version("C"), 1u) << "one ahead of the (absent) counter";

  auto dropped = view.Get("B");
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kNotFound);
  auto created = view.Get("C");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(*created, staged["C"].get());

  // The Database write interface is sealed on a read view.
  EXPECT_EQ(view.Create("X", BoxRelation(1, 1)).code(), StatusCode::kInternal);
  EXPECT_EQ(view.Drop("A").code(), StatusCode::kInternal);
}

TEST(SnapshotTest, MaterializeRestartsVersionCounters) {
  MvccCatalog catalog;
  CatalogEdit e1(catalog.Snapshot());
  ASSERT_TRUE(e1.Create("A", BoxRelation(4, 1)).ok());
  catalog.PublishSnapshot(e1.Build());
  CatalogEdit e2(catalog.Snapshot());
  e2.CreateOrReplace("A", SharedBoxes(6, 2));
  catalog.PublishSnapshot(e2.Build());
  SnapshotPtr snap = catalog.Snapshot();
  ASSERT_EQ(snap->Version("A"), 2u);

  Database copy = MaterializeSnapshot(*snap);
  EXPECT_EQ(copy.Names(), snap->Names());
  EXPECT_EQ((*copy.Get("A"))->ToString(), snap->Find("A")->ToString());
  EXPECT_EQ(copy.Version("A"), 1u) << "a materialized copy is a new lineage";
}

// ---------------------------------------------------------------------
// Transaction-statement classification
// ---------------------------------------------------------------------

/// Classifies a script through the served path's one tokenization.
lang::TxnStatement Classify(const std::string& script) {
  auto statements = lang::TokenizeScript(script);
  EXPECT_TRUE(statements.ok()) << statements.status().ToString();
  return statements.ok() ? lang::ClassifyTxnStatement(*statements)
                         : lang::TxnStatement::kNone;
}

TEST(TxnStatementTest, ClassifiesWholeStatementKeywordsOnly) {
  using lang::TxnStatement;
  EXPECT_EQ(Classify("BEGIN"), TxnStatement::kBegin);
  EXPECT_EQ(Classify("  begin  "), TxnStatement::kBegin);
  EXPECT_EQ(Classify("Begin Transaction"), TxnStatement::kBegin);
  EXPECT_EQ(Classify("COMMIT"), TxnStatement::kCommit);
  EXPECT_EQ(Classify("commit transaction"), TxnStatement::kCommit);
  EXPECT_EQ(Classify("ROLLBACK"), TxnStatement::kRollback);
  EXPECT_EQ(Classify("# note\nCOMMIT\n"), TxnStatement::kCommit);
  // A trailing comment follows the lexer's rule, as after any statement.
  EXPECT_EQ(Classify("BEGIN # note"), TxnStatement::kBegin);

  EXPECT_EQ(Classify(""), TxnStatement::kNone);
  EXPECT_EQ(Classify("BEGINX"), TxnStatement::kNone);
  EXPECT_EQ(Classify("COMMIT NOW"), TxnStatement::kNone);
  EXPECT_EQ(Classify("BEGIN TRANSACTION EXTRA"), TxnStatement::kNone);
  EXPECT_EQ(Classify("R0 = select x >= 0 from Boxes"), TxnStatement::kNone);
  // Controls are identifier tokens: a string or a trailing symbol is not.
  EXPECT_EQ(Classify("\"BEGIN\""), TxnStatement::kNone);
  EXPECT_EQ(Classify("BEGIN;"), TxnStatement::kNone);
  // Multi-statement scripts are never transaction controls.
  EXPECT_EQ(Classify("BEGIN\nR0 = select x >= 0 from Boxes"),
            TxnStatement::kNone);
}

// ---------------------------------------------------------------------
// Service transactions
// ---------------------------------------------------------------------

service::ServiceOptions OneWorker() {
  service::ServiceOptions options;
  options.num_workers = 1;
  return options;
}

TEST(TxnTest, ReadYourWritesAndIsolationUntilCommit) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 1)).ok());
  service::QueryService service(&base, OneWorker());
  const auto writer = service.OpenSession();
  const auto other = service.OpenSession();

  auto info = service.TransactionInfo(writer);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->active);

  ASSERT_TRUE(service.Begin(writer).ok());
  ASSERT_TRUE(
      service.CreateRelation(writer, "T", BoxRelation(8, 2)).ok());
  ASSERT_TRUE(service.DropRelation(writer, "Boxes").ok());

  // The transaction reads its own writes...
  EXPECT_TRUE(service.Execute(writer, "R0 = select x >= 0 from T").ok());
  EXPECT_EQ(service
                .Execute(writer, "R1 = select x >= 0 from Boxes")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service.GetRelation(writer, "T").ok());
  auto names = service.VisibleNames(writer);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "T") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "Boxes") == 0);

  // ...and nobody else sees them before COMMIT.
  EXPECT_EQ(service.GetRelation(other, "T").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service.Execute(other, "R0 = select x >= 0 from Boxes").ok());

  info = service.TransactionInfo(writer);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->active);
  EXPECT_GT(info->txn_id, 0u);
  EXPECT_EQ(info->snapshot_epoch, service.CatalogEpoch());
  EXPECT_EQ(info->staged_writes,
            (std::vector<std::string>{"Boxes", "T"}));

  const uint64_t epoch_before = service.CatalogEpoch();
  ASSERT_TRUE(service.Commit(writer).ok());
  EXPECT_EQ(service.CatalogEpoch(), epoch_before + 1)
      << "one transaction = one snapshot publication";
  EXPECT_TRUE(service.GetRelation(other, "T").ok());
  EXPECT_EQ(service.GetRelation(other, "Boxes").status().code(),
            StatusCode::kNotFound);

  const auto m = service.Metrics();
  EXPECT_EQ(m.txn_begins, 1u);
  EXPECT_EQ(m.txn_commits, 1u);
  EXPECT_EQ(m.txn_rollbacks, 0u);
}

TEST(TxnTest, RollbackDiscardsStagedWritesExactly) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 1)).ok());
  service::QueryService service(&base, OneWorker());
  const auto id = service.OpenSession();
  const uint64_t epoch = service.CatalogEpoch();

  ASSERT_TRUE(service.Begin(id).ok());
  ASSERT_TRUE(service.ReplaceRelation(id, "Boxes", BoxRelation(3, 9)).ok());
  ASSERT_TRUE(service.CreateRelation(id, "New", BoxRelation(2, 8)).ok());
  ASSERT_TRUE(service.Rollback(id).ok());

  EXPECT_EQ(service.CatalogEpoch(), epoch);
  EXPECT_EQ(service.GetRelation(id, "New").status().code(),
            StatusCode::kNotFound);
  auto boxes = service.GetRelation(id, "Boxes");
  ASSERT_TRUE(boxes.ok());
  EXPECT_EQ(boxes->size(), BoxRelation(10, 1).size());
  EXPECT_EQ(service.Metrics().txn_rollbacks, 1u);
  // Rollback without a transaction is a typed error.
  EXPECT_EQ(service.Rollback(id).code(), StatusCode::kInvalidArgument);
}

TEST(TxnTest, StatementsRouteThroughExecute) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 1)).ok());
  service::QueryService service(&base, OneWorker());
  const auto id = service.OpenSession();

  auto begun = service.Execute(id, "BEGIN");
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  EXPECT_EQ(begun->step, "BEGIN");
  auto info = service.TransactionInfo(id);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->active);

  // Ordinary statements still run inside the transaction.
  EXPECT_TRUE(service.Execute(id, "R0 = select x >= 0 from Boxes").ok());

  auto committed = service.Execute(id, "commit transaction");
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->step, "COMMIT");
  // COMMIT without a transaction fails typed, through the same route.
  EXPECT_EQ(service.Execute(id, "COMMIT").status().code(),
            StatusCode::kInvalidArgument);

  auto rolled = service.Execute(id, "BEGIN");
  ASSERT_TRUE(rolled.ok());
  rolled = service.Execute(id, "ROLLBACK");
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->step, "ROLLBACK");

  // A `#` comment may follow a control, as after any statement.
  auto noted = service.Execute(id, "BEGIN # note");
  ASSERT_TRUE(noted.ok()) << noted.status().ToString();
  EXPECT_EQ(noted->step, "BEGIN");
  EXPECT_TRUE(service.TransactionInfo(id)->active);
}

TEST(TxnTest, NoNestingAndConflictIsFirstCommitterWins) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 1)).ok());
  service::QueryService service(&base, OneWorker());
  const auto s1 = service.OpenSession();
  const auto s2 = service.OpenSession();

  ASSERT_TRUE(service.Begin(s1).ok());
  EXPECT_EQ(service.Begin(s1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Begin(s2).ok());

  ASSERT_TRUE(service.ReplaceRelation(s1, "Boxes", BoxRelation(4, 2)).ok());
  ASSERT_TRUE(service.ReplaceRelation(s2, "Boxes", BoxRelation(5, 3)).ok());

  ASSERT_TRUE(service.Commit(s1).ok());
  Status lost = service.Commit(s2);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.code(), StatusCode::kUnavailable);
  EXPECT_GE(lost.retry_after_ms(), 1);
  // The losing transaction is rolled back, not left open.
  auto info = service.TransactionInfo(s2);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->active);
  auto boxes = service.GetRelation(s2, "Boxes");
  ASSERT_TRUE(boxes.ok());
  EXPECT_EQ(boxes->size(), BoxRelation(4, 2).size()) << "winner's write holds";
  EXPECT_EQ(service.Metrics().txn_conflicts, 1u);

  // The retry path: begin again over the new snapshot and win.
  ASSERT_TRUE(service.Begin(s2).ok());
  ASSERT_TRUE(service.ReplaceRelation(s2, "Boxes", BoxRelation(5, 3)).ok());
  EXPECT_TRUE(service.Commit(s2).ok());

  // Disjoint writers never conflict.
  ASSERT_TRUE(service.Begin(s1).ok());
  ASSERT_TRUE(service.Begin(s2).ok());
  ASSERT_TRUE(service.CreateRelation(s1, "C", BoxRelation(2, 4)).ok());
  ASSERT_TRUE(service.CreateRelation(s2, "D", BoxRelation(2, 5)).ok());
  EXPECT_TRUE(service.Commit(s1).ok());
  EXPECT_TRUE(service.Commit(s2).ok());
  EXPECT_TRUE(service.GetRelation(s1, "C").ok());
  EXPECT_TRUE(service.GetRelation(s1, "D").ok());
}

TEST(TxnTest, EmptyAndNetNoopCommitsDoNotPublish) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(10, 1)).ok());
  service::QueryService service(&base, OneWorker());
  const auto id = service.OpenSession();
  const uint64_t epoch = service.CatalogEpoch();

  // Read-only transaction.
  ASSERT_TRUE(service.Begin(id).ok());
  EXPECT_TRUE(service.Execute(id, "R0 = select x >= 0 from Boxes").ok());
  EXPECT_TRUE(service.Commit(id).ok());
  EXPECT_EQ(service.CatalogEpoch(), epoch);

  // Create-then-drop nets out to nothing.
  ASSERT_TRUE(service.Begin(id).ok());
  ASSERT_TRUE(service.CreateRelation(id, "Temp", BoxRelation(3, 2)).ok());
  ASSERT_TRUE(service.DropRelation(id, "Temp").ok());
  EXPECT_TRUE(service.Commit(id).ok());
  EXPECT_EQ(service.CatalogEpoch(), epoch);
  EXPECT_EQ(service.GetRelation(id, "Temp").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Metrics().txn_commits, 2u);
}

TEST(TxnTest, InTxnQueriesBypassTheResultCache) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 1)).ok());
  service::QueryService service(&base, OneWorker());
  const auto id = service.OpenSession();
  const std::string script = "R0 = select x >= 0 from Boxes";

  ASSERT_TRUE(service.Execute(id, script).ok());  // miss + insert
  ASSERT_TRUE(service.Execute(id, script).ok());  // hit
  EXPECT_EQ(service.Metrics().cache_hits, 1u);

  ASSERT_TRUE(service.Begin(id).ok());
  ASSERT_TRUE(service.Execute(id, script).ok());
  ASSERT_TRUE(service.Execute(id, script).ok());
  EXPECT_EQ(service.Metrics().cache_hits, 1u)
      << "queries inside a transaction must not read the shared cache";
  ASSERT_TRUE(service.Rollback(id).ok());

  ASSERT_TRUE(service.Execute(id, script).ok());
  EXPECT_EQ(service.Metrics().cache_hits, 2u);
}

// Regression (pre-MVCC TOCTOU): the result-cache key used to stamp
// versions at insert time, so a commit landing between execution and
// insert registered stale results under post-commit versions. Keys now
// come from the pinned snapshot, so the staled entry stays keyed under
// the version it was computed from.
TEST(TxnTest, CacheInsertCannotBePoisonedByConcurrentCommit) {
  Database base;
  ASSERT_TRUE(base.Create("Boxes", BoxRelation(20, 1)).ok());
  service::ServiceOptions options = OneWorker();
  service::QueryService* svc = nullptr;
  std::atomic<int> hook_fires{0};
  options.post_execute_hook = [&] {
    // Runs on the worker between execution and the cache insert — the
    // historical race window. Commit a replacement right there.
    if (hook_fires.fetch_add(1) == 0) {
      ASSERT_TRUE(svc->ReplaceRelation("Boxes", BoxRelation(7, 2)).ok());
    }
  };
  service::QueryService service(&base, options);
  svc = &service;
  const auto id = service.OpenSession();
  const std::string script = "R0 = select x >= 0 from Boxes";

  auto stale = service.Execute(id, script);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ASSERT_GE(hook_fires.load(), 1);
  EXPECT_EQ(stale->relation.size(), BoxRelation(20, 1).size())
      << "first run executed against the pinned pre-commit snapshot";

  // The re-run keys on the *new* version: it must recompute against the
  // replacement, not replay the stale insert.
  auto fresh = service.Execute(id, script);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->relation.size(), BoxRelation(7, 2).size());
  EXPECT_EQ(service.Metrics().cache_hits, 0u);
}

TEST(TxnTest, CommitIsOneAtomicWalBatch) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  const PageId wal_root = (*store)->wal_root();
  {
    Database base;
    service::ServiceOptions options = OneWorker();
    options.store = store->get();
    service::QueryService service(&base, options);
    ASSERT_TRUE(service.CreateRelation("Boxes", BoxRelation(10, 1)).ok());
    const uint64_t batches = service.Metrics().wal_batches;

    const auto id = service.OpenSession();
    ASSERT_TRUE(service.Begin(id).ok());
    ASSERT_TRUE(service.CreateRelation(id, "A", BoxRelation(4, 2)).ok());
    ASSERT_TRUE(service.CreateRelation(id, "B", BoxRelation(5, 3)).ok());
    ASSERT_TRUE(service.ReplaceRelation(id, "Boxes", BoxRelation(6, 4)).ok());
    ASSERT_TRUE(service.Commit(id).ok());
    EXPECT_EQ(service.Metrics().wal_batches, batches + 1)
        << "three staged writes, exactly one WAL batch";
  }
  // All three writes recover together.
  auto reopened = DurableStore::Open(&disk, wal_root);
  ASSERT_TRUE(reopened.ok());
  auto loaded = (*reopened)->LoadCatalog();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Names(), (std::vector<std::string>{"A", "B", "Boxes"}));
  EXPECT_EQ((*loaded->Get("Boxes"))->size(), BoxRelation(6, 4).size());
}

// ---------------------------------------------------------------------
// Crash matrix: transaction atomicity at every I/O fault point
// ---------------------------------------------------------------------

std::string Fingerprint(const Database& db) {
  std::string out;
  for (const std::string& name : db.Names()) {
    auto rel = db.Get(name);
    out += name + "#" + std::to_string(rel.ok() ? (*rel)->size() : 0) + ";";
  }
  return out;
}

struct TxnMatrixRun {
  bool store_ok = false;
  PageId wal_root = kInvalidPageId;
  std::string last_acked;  // fingerprint of the last acknowledged state
  std::string pending;     // target of the first failed commit, if any
  std::string in_memory;   // service-visible state at the end
};

/// Workload: autocommit Seed(6); then one transaction staging
/// {create A(4), replace Seed(9)} committed as a unit. Legal durable
/// states: "", "Seed#6;", "A#4;Seed#9;" — never A without the new Seed.
TxnMatrixRun RunTxnMatrixWorkload(FaultInjectingPager* disk) {
  TxnMatrixRun out;
  auto store = DurableStore::Create(disk);
  if (!store.ok()) return out;
  out.store_ok = true;
  out.wal_root = (*store)->wal_root();
  Database base;
  service::ServiceOptions options = OneWorker();
  options.store = store->get();
  service::QueryService service(&base, options);

  auto attempt = [&](const std::string& target, Status status) {
    if (status.ok()) {
      out.last_acked = target;
    } else if (out.pending.empty()) {
      out.pending = target;
    }
  };
  attempt("Seed#6;", service.CreateRelation("Seed", BoxRelation(6, 1)));

  const auto id = service.OpenSession();
  EXPECT_TRUE(service.Begin(id).ok());
  EXPECT_TRUE(service.CreateRelation(id, "A", BoxRelation(4, 2)).ok());
  EXPECT_TRUE(service.ReplaceRelation(id, "Seed", BoxRelation(9, 3)).ok());
  attempt("A#4;Seed#9;", service.Commit(id));

  out.in_memory = Fingerprint(service.CloneBase());
  return out;
}

void RunTxnCrashMatrix(FaultInjectingPager::Fault fault, const char* label) {
  uint64_t total_ios = 0;
  {
    FaultInjectingPager disk;
    const TxnMatrixRun all = RunTxnMatrixWorkload(&disk);
    ASSERT_TRUE(all.store_ok);
    ASSERT_EQ(all.last_acked, "A#4;Seed#9;");
    ASSERT_EQ(all.in_memory, all.last_acked);
    total_ios = disk.io_count();
  }
  ASSERT_GT(total_ios, 0u);

  size_t verified = 0;
  for (uint64_t n = 0; n < total_ios; ++n) {
    SCOPED_TRACE(std::string(label) + " fault at I/O " + std::to_string(n));
    FaultInjectingPager disk;
    disk.Arm(fault, n);
    const TxnMatrixRun run = RunTxnMatrixWorkload(&disk);
    if (!run.store_ok) continue;  // died before the store existed

    // The failed-commit rollback pin, at every fault point: the
    // service's published catalog tracks acknowledgements exactly.
    ASSERT_EQ(run.in_memory, run.last_acked);

    // Reboot and recover: the durable state is the last acked one, or
    // the single indeterminate in-flight commit — never a mix, and in
    // particular never A without the transaction's Seed replacement.
    disk.ClearFault();
    auto reopened = DurableStore::Open(&disk, run.wal_root);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto loaded = (*reopened)->LoadCatalog();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::string recovered = Fingerprint(*loaded);
    if (recovered != run.last_acked) {
      ASSERT_FALSE(run.pending.empty())
          << "recovered un-attempted state: " << recovered;
      ASSERT_EQ(recovered, run.pending);
    }
    ++verified;
  }
  EXPECT_GT(verified, 0u);
}

TEST(TxnCrashMatrixTest, TransientFailureAtEveryIoPoint) {
  RunTxnCrashMatrix(FaultInjectingPager::Fault::kFail, "kFail");
}

TEST(TxnCrashMatrixTest, TornWriteAtEveryIoPoint) {
  RunTxnCrashMatrix(FaultInjectingPager::Fault::kTornWrite, "kTornWrite");
}

TEST(TxnCrashMatrixTest, CrashAtEveryIoPoint) {
  RunTxnCrashMatrix(FaultInjectingPager::Fault::kCrash, "kCrash");
}

// ---------------------------------------------------------------------
// N writers x M readers stress
// ---------------------------------------------------------------------

// Writers atomically replace the pair (A, B) with identical contents in
// one transaction each; readers difference them inside single scripts
// (one pinned snapshot per script). A non-empty difference means a
// reader saw a torn catalog. TSan-clean by construction: readers run
// lock-free on frozen snapshots.
TEST(MvccStressTest, WriterStormNeverTearsReaders) {
  Database base;
  ASSERT_TRUE(base.Create("A", BoxRelation(6, 100)).ok());
  ASSERT_TRUE(base.Create("B", BoxRelation(6, 100)).ok());
  service::ServiceOptions options;
  options.num_workers = 2;
  service::QueryService service(&base, options);

  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kWritesEach = 12;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> conflicts{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // The storm must overlap the readers: start once one read is in
      // (bounded, so a reader that failed cannot hang the test).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (reads.load() == 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      const auto id = service.OpenSession();
      for (int i = 0; i < kWritesEach; ++i) {
        ASSERT_TRUE(service.Begin(id).ok());
        const Relation next = BoxRelation(4 + (i % 5), 200 + w * 37 + i);
        ASSERT_TRUE(service.ReplaceRelation(id, "A", next).ok());
        ASSERT_TRUE(service.ReplaceRelation(id, "B", next).ok());
        Status committed = service.Commit(id);
        if (committed.ok()) {
          ++commits;
        } else {
          ASSERT_EQ(committed.code(), StatusCode::kUnavailable)
              << committed.ToString();
          ++conflicts;
        }
      }
      EXPECT_TRUE(service.CloseSession(id).ok());
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      const auto id = service.OpenSession();
      while (!stop.load()) {
        auto diff = service.Execute(id, "R0 = minus A and B");
        ASSERT_TRUE(diff.ok()) << diff.status().ToString();
        ++reads;
        if (diff->relation.size() != 0) ++torn;
      }
      EXPECT_TRUE(service.CloseSession(id).ok());
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "a reader observed a torn catalog";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(commits.load(), 0u);
  EXPECT_EQ(commits.load() + conflicts.load(),
            static_cast<uint64_t>(kWriters * kWritesEach));
  // Every successful commit published exactly one snapshot.
  EXPECT_EQ(service.CatalogEpoch(), 1u + commits.load());
  const auto m = service.Metrics();
  EXPECT_EQ(m.txn_commits, commits.load());
  EXPECT_EQ(m.txn_conflicts, conflicts.load());
  EXPECT_EQ(m.catalog_epoch, service.CatalogEpoch());
}

}  // namespace
}  // namespace ccdb
