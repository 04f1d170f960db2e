#include "storage/wal.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/workload.h"
#include "storage/catalog.h"
#include "storage/fault.h"
#include "util/random.h"

namespace ccdb {
namespace {

Relation TinyRelation(size_t count, uint64_t seed) {
  WorkloadParams params;
  params.data_count = count;
  return BoxesToConstraintRelation(GenerateDataBoxes(seed, params));
}

/// Canonical rendering of a whole database — the crash-matrix oracle.
std::string Fingerprint(const Database& db) {
  std::string out;
  for (const std::string& name : db.Names()) {
    auto rel = db.Get(name);
    if (!rel.ok()) return "<error: " + rel.status().ToString() + ">";
    out += name + "|" + (*rel)->schema().ToString() + "|" +
           (*rel)->ToString() + "\n";
  }
  return out;
}

// --- CRC ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  // The standard IEEE check value for "123456789".
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(Crc32(digits, 0), 0u);
  uint8_t flipped[sizeof(digits)];
  std::memcpy(flipped, digits, sizeof(digits));
  flipped[4] ^= 1;
  EXPECT_NE(Crc32(flipped, sizeof(flipped)), Crc32(digits, sizeof(digits)));
}

/// CRC-32 one byte at a time through one 256-entry table: the reference
/// the sliced implementation must equal.
uint32_t BytewiseCrc32(const uint8_t* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseReference) {
  // Every length 0..300 (the sliced loop's 8-byte body and every tail)
  // at every start offset 0..7 (every alignment of the first load).
  Rng rng(24);
  std::vector<uint8_t> buf(300 + 7);
  for (size_t len = 0; len <= 300; ++len) {
    for (uint8_t& byte : buf) {
      byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    for (size_t offset = 0; offset < 8; ++offset) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "length " << len << ", offset " << offset;
    }
  }
}

// --- FaultInjectingPager -----------------------------------------------------------

TEST(FaultInjectingPagerTest, TransientTornAndCrashModes) {
  FaultInjectingPager disk;
  PageId a = disk.Allocate();
  ASSERT_NE(a, kInvalidPageId);
  Page before;
  before.Zero();
  before.bytes()[0] = 1;
  before.bytes()[kPageSize - 1] = 2;
  ASSERT_TRUE(disk.Write(a, before).ok());

  // kFail: exactly one operation fails, then the disk is healthy.
  disk.Arm(FaultInjectingPager::Fault::kFail, 0);
  EXPECT_FALSE(disk.Write(a, before).ok());
  EXPECT_TRUE(disk.fired());
  EXPECT_FALSE(disk.crashed());
  EXPECT_TRUE(disk.Write(a, before).ok());

  // kTornWrite: half the new image lands, then the disk is down.
  Page update;
  for (size_t i = 0; i < kPageSize; ++i) update.data[i] = 7;
  disk.Arm(FaultInjectingPager::Fault::kTornWrite, 0);
  EXPECT_FALSE(disk.Write(a, update).ok());
  EXPECT_TRUE(disk.crashed());
  Page out;
  EXPECT_FALSE(disk.Read(a, &out).ok()) << "disk stays down after tearing";
  EXPECT_EQ(disk.Allocate(), kInvalidPageId);
  disk.ClearFault();
  ASSERT_TRUE(disk.Read(a, &out).ok());
  EXPECT_EQ(out.bytes()[0], 7) << "new first half";
  EXPECT_EQ(out.bytes()[kPageSize / 2 - 1], 7);
  EXPECT_EQ(out.bytes()[kPageSize / 2], 0) << "old second half";
  EXPECT_EQ(out.bytes()[kPageSize - 1], 2);

  // kCrash: nothing lands, every later operation fails until ClearFault.
  disk.Arm(FaultInjectingPager::Fault::kCrash, 1);
  EXPECT_TRUE(disk.Read(a, &out).ok()) << "one op before the fault";
  EXPECT_FALSE(disk.Write(a, before).ok());
  EXPECT_FALSE(disk.Read(a, &out).ok());
  disk.ClearFault();
  ASSERT_TRUE(disk.Read(a, &out).ok());
  EXPECT_EQ(out.bytes()[0], 7) << "crashed write must not persist";
  EXPECT_GT(disk.io_count(), 0u);
}

// --- WriteAheadLog frame-level protocol --------------------------------------------

TEST(WriteAheadLogTest, CommitThenReplayAppliesFrames) {
  PageManager disk;
  PageId a = disk.Allocate();
  PageId b = disk.Allocate();
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Create().ok());

  WalFrame fa;
  fa.page_id = a;
  for (size_t i = 0; i < kPageSize; ++i) fa.image.data[i] = 0xAA;
  WalFrame fb;
  fb.page_id = b;
  for (size_t i = 0; i < kPageSize; ++i) fb.image.data[i] = 0xBB;
  ASSERT_TRUE(wal.CommitBatch({fa, fb}, a).ok());
  EXPECT_EQ(wal.next_lsn(), 2u);
  EXPECT_EQ(wal.stats().batches_committed, 1u);
  EXPECT_GT(wal.stats().bytes_appended, 2 * kPageSize);

  // CommitBatch journals; it does not touch the home pages.
  Page out;
  ASSERT_TRUE(disk.Read(a, &out).ok());
  EXPECT_NE(out.bytes()[0], 0xAA);

  // A record of two full page images spans multiple log pages.
  EXPECT_GE(wal.log_page_count(), 3u);

  WriteAheadLog reopened(&disk);
  ASSERT_TRUE(reopened.Open(wal.header_page()).ok());
  EXPECT_EQ(reopened.stats().batches_recovered, 1u);
  EXPECT_EQ(reopened.stats().records_discarded, 0u);
  EXPECT_EQ(reopened.recovered_catalog_root(), a);
  EXPECT_EQ(reopened.next_lsn(), 2u);
  ASSERT_TRUE(disk.Read(a, &out).ok());
  EXPECT_EQ(out.bytes()[0], 0xAA);
  ASSERT_TRUE(disk.Read(b, &out).ok());
  EXPECT_EQ(out.bytes()[0], 0xBB);
}

TEST(WriteAheadLogTest, TruncateDropsRecordsAndKeepsRoot) {
  PageManager disk;
  PageId a = disk.Allocate();
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Create().ok());
  WalFrame frame;
  frame.page_id = a;
  frame.image.data[0] = 0xCC;
  ASSERT_TRUE(wal.CommitBatch({frame}, a).ok());
  ASSERT_TRUE(disk.Write(a, frame.image).ok());  // apply by hand
  ASSERT_TRUE(wal.Truncate(a).ok());
  EXPECT_EQ(wal.stats().checkpoints, 1u);

  // Reopen: nothing replays, but the root survives via the header.
  WriteAheadLog reopened(&disk);
  ASSERT_TRUE(reopened.Open(wal.header_page()).ok());
  EXPECT_EQ(reopened.stats().batches_recovered, 0u);
  EXPECT_EQ(reopened.recovered_catalog_root(), a);
  EXPECT_EQ(reopened.next_lsn(), wal.next_lsn()) << "LSN floor persists";

  // The log chain is reused after a truncate: a new commit still works.
  frame.image.data[0] = 0xDD;
  ASSERT_TRUE(reopened.CommitBatch({frame}, a).ok());
  WriteAheadLog again(&disk);
  ASSERT_TRUE(again.Open(wal.header_page()).ok());
  EXPECT_EQ(again.stats().batches_recovered, 1u);
  Page out;
  ASSERT_TRUE(disk.Read(a, &out).ok());
  EXPECT_EQ(out.bytes()[0], 0xDD);
}

// --- DurableStore round trips ------------------------------------------------------

TEST(DurableStoreTest, CatalogRoundTripAndLatestCommitWins) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  Database db;
  ASSERT_TRUE(db.Create("A", TinyRelation(4, 1)).ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  ASSERT_TRUE(db.Create("B", TinyRelation(3, 2)).ok());
  db.CreateOrReplace("A", TinyRelation(6, 3));
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());

  // Live load sees the latest commit.
  auto live = (*store)->LoadCatalog();
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(Fingerprint(*live), Fingerprint(db));

  // Reopen from disk + root alone: recovery replays both batches.
  auto reopened = DurableStore::Open(&disk, (*store)->wal_root());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().batches_recovered, 2u);
  auto loaded = (*reopened)->LoadCatalog();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Fingerprint(*loaded), Fingerprint(db));
}

TEST(DurableStoreTest, CheckpointTruncatesAndPreservesState) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  Database db;
  ASSERT_TRUE(db.Create("A", TinyRelation(5, 4)).ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());

  // After the checkpoint the log is empty but the state is intact.
  auto after_ckpt = DurableStore::Open(&disk, (*store)->wal_root());
  ASSERT_TRUE(after_ckpt.ok());
  EXPECT_EQ((*after_ckpt)->stats().batches_recovered, 0u);
  auto loaded = (*after_ckpt)->LoadCatalog();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Fingerprint(*loaded), Fingerprint(db));

  // Commits after a checkpoint recover too (fresh LSNs above the floor).
  ASSERT_TRUE(db.Create("B", TinyRelation(2, 5)).ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  auto final_open = DurableStore::Open(&disk, (*store)->wal_root());
  ASSERT_TRUE(final_open.ok());
  EXPECT_EQ((*final_open)->stats().batches_recovered, 1u);
  auto final_loaded = (*final_open)->LoadCatalog();
  ASSERT_TRUE(final_loaded.ok());
  EXPECT_EQ(Fingerprint(*final_loaded), Fingerprint(db));
}

TEST(DurableStoreTest, TransientFailureThenRetryWithoutReopen) {
  FaultInjectingPager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  Database db;
  ASSERT_TRUE(db.Create("A", TinyRelation(4, 6)).ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());

  // One transient I/O error somewhere inside the commit: the commit must
  // fail, and the store must remain usable without reopening.
  ASSERT_TRUE(db.Create("B", TinyRelation(4, 7)).ok());
  disk.Arm(FaultInjectingPager::Fault::kFail, 5);
  Status failed = (*store)->CommitCatalog(db);
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(disk.fired());

  // The failed batch was never acknowledged: a fresh load sees only A.
  auto reopened = DurableStore::Open(&disk, (*store)->wal_root());
  ASSERT_TRUE(reopened.ok());
  auto loaded = (*reopened)->LoadCatalog();
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->Has("B"));

  // Retry on the original store: overwrites the torn tail record.
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  auto after_retry = DurableStore::Open(&disk, (*store)->wal_root());
  ASSERT_TRUE(after_retry.ok());
  auto retried = (*after_retry)->LoadCatalog();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(Fingerprint(*retried), Fingerprint(db));
}

// --- Incremental commits -----------------------------------------------------------
//
// A commit serializes only the relations whose content stamp changed since
// the store's last acknowledged commit and points at the existing heaps
// for the rest. The oracle is the reuse-nothing save: SaveDatabase, then
// LoadDatabase, on a fresh disk.

std::string ReferenceFingerprint(const Database& db) {
  PageManager disk;
  BufferPool pool(&disk, 16);
  auto root = SaveDatabase(&pool, db);
  if (!root.ok()) return "<save error: " + root.status().ToString() + ">";
  auto loaded = LoadDatabase(&pool, *root);
  if (!loaded.ok()) return "<load error: " + loaded.status().ToString() + ">";
  return Fingerprint(*loaded);
}

/// The live catalog and a fresh reopen of `disk` both equal the reference.
void ExpectStoreHolds(DurableStore* store, PageManager* disk,
                      const Database& db) {
  const std::string expected = ReferenceFingerprint(db);
  auto live = store->LoadCatalog();
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(Fingerprint(*live), expected);
  auto reopened = DurableStore::Open(disk, store->wal_root());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto loaded = (*reopened)->LoadCatalog();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Fingerprint(*loaded), expected);
}

TEST(IncrementalCommitTest, RandomHistoriesMatchReuseNothingSaves) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    PageManager disk;
    auto created = DurableStore::Create(&disk);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<DurableStore> store = std::move(created).value();
    Database db;
    uint64_t content = 100;
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::string name = "R" + std::to_string(rng.UniformInt(0, 3));
      switch (rng.UniformInt(0, 6)) {
        case 0:  // create or replace with new content
          db.CreateOrReplace(
              name, TinyRelation(static_cast<size_t>(rng.UniformInt(0, 4)),
                                 ++content));
          break;
        case 1:  // replace with a copy of itself: the heap is reused
          if (db.Has(name)) {
            Relation copy = **db.Get(name);
            db.CreateOrReplace(name, copy);
          }
          break;
        case 2:  // replace with a moved-from relation: rewritten
          if (db.Has(name)) {
            Relation source = **db.Get(name);
            Relation taken = std::move(source);
            db.CreateOrReplace(name, source);  // NOLINT(bugprone-use-after-move)
          }
          break;
        case 3:  // grow a copy in place: the copy's stamp must move
          if (db.Has(name)) {
            Relation grown = **db.Get(name);
            if (grown.InsertAll(TinyRelation(1, ++content)).ok()) {
              db.CreateOrReplace(name, grown);
            }
          }
          break;
        case 4:
          if (db.Has(name)) {
            ASSERT_TRUE(db.Drop(name).ok());
          }
          break;
        case 5: {  // the same relations in a new Database: fresh versions
          Database rebuilt;
          for (const std::string& n : db.Names()) {
            ASSERT_TRUE(rebuilt.Create(n, **db.Get(n)).ok());
          }
          db = std::move(rebuilt);
          break;
        }
        default:  // an unchanged commit
          break;
      }
      const WalStats before = store->stats();
      ASSERT_TRUE(store->CommitCatalog(db).ok());
      const WalStats after = store->stats();
      EXPECT_EQ(after.relations_written + after.relations_reused -
                    before.relations_written - before.relations_reused,
                db.size());
      ExpectStoreHolds(store.get(), &disk, db);
      if (rng.UniformInt(0, 5) == 0) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
      if (rng.UniformInt(0, 5) == 0) {
        auto reopened = DurableStore::Open(&disk, store->wal_root());
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
        store = std::move(reopened).value();
      }
    }
  }
}

TEST(IncrementalCommitTest, EqualVersionsInTwoDatabasesAreNotConfused) {
  // Both catalogs hold R at version 1 with different tuples: a store that
  // keyed reuse on (name, version) would keep the first one's heap.
  Database first;
  Database second;
  ASSERT_TRUE(first.Create("R", TinyRelation(3, 1)).ok());
  ASSERT_TRUE(second.Create("R", TinyRelation(3, 2)).ok());
  ASSERT_EQ(first.Version("R"), second.Version("R"));
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->CommitCatalog(first).ok());
  ASSERT_TRUE((*store)->CommitCatalog(second).ok());
  ExpectStoreHolds(store->get(), &disk, second);
  EXPECT_EQ((*store)->stats().relations_written, 2u);
  EXPECT_EQ((*store)->stats().relations_reused, 0u);
}

TEST(IncrementalCommitTest, CopiesAreReusedAndMovedFromRelationsRewritten) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  Database db;
  ASSERT_TRUE(db.Create("A", TinyRelation(4, 1)).ok());
  ASSERT_TRUE(db.Create("B", TinyRelation(4, 2)).ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  EXPECT_EQ((*store)->stats().relations_written, 2u);

  // A copy keeps the stamp: nothing is rewritten.
  Relation copy = **db.Get("A");
  db.CreateOrReplace("A", copy);
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  EXPECT_EQ((*store)->stats().relations_written, 2u);
  EXPECT_EQ((*store)->stats().relations_reused, 2u);
  ExpectStoreHolds(store->get(), &disk, db);

  // A moved-from relation gets a fresh stamp: it is rewritten, and the
  // relation it was moved into keeps the original stamp.
  Relation source = **db.Get("B");
  Relation taken = std::move(source);
  EXPECT_EQ(taken.stamp(), (*db.Get("B"))->stamp());
  EXPECT_NE(source.stamp(), taken.stamp());  // NOLINT(bugprone-use-after-move)
  db.CreateOrReplace("B", source);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  EXPECT_EQ((*store)->stats().relations_written, 3u);
  EXPECT_EQ((*store)->stats().relations_reused, 3u);
  ExpectStoreHolds(store->get(), &disk, db);
}

TEST(IncrementalCommitTest, DropThenRecreateRewrites) {
  PageManager disk;
  auto store = DurableStore::Create(&disk);
  ASSERT_TRUE(store.ok());
  Database db;
  ASSERT_TRUE(db.Create("R", TinyRelation(4, 1)).ok());
  ASSERT_TRUE(db.Create("S", TinyRelation(2, 2)).ok());
  const Relation original = **db.Get("R");
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  ASSERT_TRUE(db.Drop("R").ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  ExpectStoreHolds(store->get(), &disk, db);

  ASSERT_TRUE(db.Create("R", TinyRelation(5, 3)).ok());
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  ExpectStoreHolds(store->get(), &disk, db);

  // Even the dropped content itself is rewritten: the drop's commit no
  // longer lists R, so there is no heap to point at.
  db.CreateOrReplace("R", original);
  ASSERT_TRUE((*store)->CommitCatalog(db).ok());
  ExpectStoreHolds(store->get(), &disk, db);
  EXPECT_EQ((*store)->stats().relations_written, 4u);
  EXPECT_EQ((*store)->stats().relations_reused, 3u);
}

TEST(IncrementalCommitTest, ReplaceCostDoesNotGrowWithTheCatalog) {
  // Replacing a 64-box relation appends the same WAL bytes beside 1 and
  // beside 16 untouched 300-box relations, and exactly two pages' worth.
  auto replace_bytes = [](size_t untouched) -> uint64_t {
    PageManager disk;
    auto store = DurableStore::Create(&disk);
    EXPECT_TRUE(store.ok());
    Database db;
    for (size_t i = 0; i < untouched; ++i) {
      EXPECT_TRUE(db.Create("U" + std::to_string(i), TinyRelation(300, 50 + i))
                      .ok());
    }
    EXPECT_TRUE(db.Create("Live", TinyRelation(64, 7)).ok());
    EXPECT_TRUE((*store)->CommitCatalog(db).ok());
    const WalStats before = (*store)->stats();
    db.CreateOrReplace("Live", TinyRelation(64, 8));
    EXPECT_TRUE((*store)->CommitCatalog(db).ok());
    const WalStats after = (*store)->stats();
    EXPECT_EQ(after.relations_written - before.relations_written, 1u);
    EXPECT_EQ(after.relations_reused - before.relations_reused, untouched);
    return after.bytes_appended - before.bytes_appended;
  };
  const uint64_t beside_one = replace_bytes(1);
  EXPECT_EQ(replace_bytes(16), beside_one);
  // One record of two frames, each a page id and a page image: the 64
  // boxes fit one heap page, and the catalog heap takes another. The
  // 48 bytes are the record's header, CRC and commit marker.
  EXPECT_EQ(beside_one, 2 * (8 + kPageSize) + 48);
}

// --- The crash matrix --------------------------------------------------------------
//
// For every fault mode and every I/O index N: run the standard commit
// workload with the fault armed at N, "reboot" (ClearFault), reopen, and
// require the recovered catalog to equal the state at the last
// acknowledged commit — acknowledged batches are never lost and
// unacknowledged batches never surface — with one classical exception: a
// commit whose final write failed may still have fully reached the disk
// (a torn write that happened to cover the whole record). Such a commit
// is *indeterminate*, exactly as in real databases when the connection
// dies mid-COMMIT, so recovery may surface the one in-flight batch; it
// must never surface anything beyond it. Then prove the recovered store
// is fully usable by committing twice more and reopening again.
//
// Commits are incremental, so the workload mixes rewritten and reused
// heaps: each commit adds R<i> beside the carried-over earlier relations,
// and the last one replaces R0 while R1 and R2 are carried over.

constexpr int kMatrixCommits = 4;

void AddMatrixRelation(Database* db, int i) {
  db->CreateOrReplace("R" + std::to_string(i),
                      TinyRelation(2, 10 + static_cast<uint64_t>(i)));
}

void ApplyMatrixCommit(Database* db, int i) {
  if (i == kMatrixCommits - 1) {
    db->CreateOrReplace("R0", TinyRelation(3, 30));
  } else {
    AddMatrixRelation(db, i);
  }
}

struct MatrixOutcome {
  std::string last_acked;  // fingerprint at the last acknowledged commit
  std::string pending;     // first unacknowledged attempt after it, if any
};

/// Runs the workload; returns the fingerprint after the last acknowledged
/// commit ("" when none was acknowledged) plus the fingerprint of the
/// first commit attempt that failed after it — only that attempt can have
/// (indeterminately) reached the disk, since every later attempt starts
/// after the injected fault has taken the disk down.
MatrixOutcome RunMatrixWorkload(DurableStore* store, Database* db) {
  MatrixOutcome out;
  for (int i = 0; i < kMatrixCommits; ++i) {
    ApplyMatrixCommit(db, i);
    if (store->CommitCatalog(*db).ok()) {
      out.last_acked = Fingerprint(*db);
      out.pending.clear();
    } else if (out.pending.empty()) {
      out.pending = Fingerprint(*db);
    }
  }
  return out;
}

void RunCrashMatrix(FaultInjectingPager::Fault fault, const char* label) {
  // Measure the total I/O count of an unfaulted run — the index space.
  uint64_t total_ios = 0;
  {
    FaultInjectingPager disk;
    auto store = DurableStore::Create(&disk);
    ASSERT_TRUE(store.ok());
    Database db;
    const MatrixOutcome all = RunMatrixWorkload(store->get(), &db);
    EXPECT_EQ(all.last_acked, Fingerprint(db)) << "unfaulted run must ack all";
    total_ios = disk.io_count();
  }
  ASSERT_GT(total_ios, 0u);

  size_t verified = 0;
  for (uint64_t n = 0; n < total_ios; ++n) {
    SCOPED_TRACE(std::string(label) + " fault at I/O " + std::to_string(n));
    FaultInjectingPager disk;
    disk.Arm(fault, n);
    auto store = DurableStore::Create(&disk);
    if (!store.ok()) continue;  // died before the store existed: no acks
    const PageId wal_root = (*store)->wal_root();
    Database db;
    const MatrixOutcome outcome = RunMatrixWorkload(store->get(), &db);

    // Reboot and recover.
    disk.ClearFault();
    auto reopened = DurableStore::Open(&disk, wal_root);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto loaded = (*reopened)->LoadCatalog();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::string recovered = Fingerprint(*loaded);
    if (recovered != outcome.last_acked) {
      // The only other legal state: the one indeterminate in-flight batch.
      ASSERT_FALSE(outcome.pending.empty())
          << "recovered a state with no matching commit attempt:\n"
          << recovered;
      ASSERT_EQ(recovered, outcome.pending);
    }

    // The recovered store must accept and persist new commits: the first
    // rewrites every relation, the second replaces R99 beside the rest.
    Database next = *loaded;
    AddMatrixRelation(&next, 99);
    ASSERT_TRUE((*reopened)->CommitCatalog(next).ok());
    next.CreateOrReplace("R99", TinyRelation(3, 199));
    ASSERT_TRUE((*reopened)->CommitCatalog(next).ok());
    auto final_open = DurableStore::Open(&disk, wal_root);
    ASSERT_TRUE(final_open.ok()) << final_open.status().ToString();
    auto final_loaded = (*final_open)->LoadCatalog();
    ASSERT_TRUE(final_loaded.ok()) << final_loaded.status().ToString();
    ASSERT_EQ(Fingerprint(*final_loaded), Fingerprint(next));
    ++verified;
  }
  EXPECT_GT(verified, 0u);
}

TEST(CrashMatrixTest, TransientFailureAtEveryIoPoint) {
  RunCrashMatrix(FaultInjectingPager::Fault::kFail, "kFail");
}

TEST(CrashMatrixTest, TornWriteAtEveryIoPoint) {
  RunCrashMatrix(FaultInjectingPager::Fault::kTornWrite, "kTornWrite");
}

TEST(CrashMatrixTest, CrashAtEveryIoPoint) {
  RunCrashMatrix(FaultInjectingPager::Fault::kCrash, "kCrash");
}

}  // namespace
}  // namespace ccdb
