#ifndef CCDB_STORAGE_WAL_H_
#define CCDB_STORAGE_WAL_H_

/// \file wal.h
/// Crash safety: page-level write-ahead logging and recovery.
///
/// The original CQA/CDB was a persistent system; this layer gives CCDB the
/// durability story the simulated disk was missing. The design is a classic
/// redo-only (after-image) WAL:
///
///  - A *batch* is the unit of atomicity: the set of dirty pages produced
///    by one logical mutation (e.g. one catalog save). `WalPager` stages a
///    batch's page writes in memory; nothing touches the heap area of the
///    disk until the batch is journaled.
///  - `WriteAheadLog::CommitBatch` serializes the batch — LSN, catalog
///    root, full 4 KiB after-images of every dirty page, a CRC-32 over all
///    of it, and a trailing commit marker — and appends it to a chain of
///    log pages. On the simulated write-through disk a page write that
///    returns OK is durable, so the final log-page write (the one carrying
///    the CRC and commit marker) doubles as the fsync: `CommitBatch`
///    returns OK if and only if the commit record is durable, and that is
///    the acknowledgment point.
///  - Only after the commit record is durable are the staged images
///    applied to their home pages. An apply failure does not un-commit the
///    batch: the images stay in `WalPager`'s overlay (so reads remain
///    correct) and recovery re-applies them from the log at next open.
///  - `WriteAheadLog::Open` replays: it walks the log chain, accepts
///    records while the framing is intact (magic, CRC, commit marker) and
///    LSNs are exactly sequential starting from the header's `next_lsn`,
///    rewrites every accepted page image (idempotent redo), and discards
///    the torn tail. The sequential-LSN rule also rejects stale records
///    left over from before a checkpoint.
///  - `Truncate` (the `\checkpoint` operation) first persists the current
///    catalog root and next LSN in the WAL header, then zeroes the log
///    chain. Crashing between the two steps is safe: the stale records
///    that survive carry LSNs below the header's floor and are ignored.
///
/// `DurableStore` packages the stack — base disk, WAL, staging pager,
/// buffer pool — behind a catalog-level API (`CommitCatalog` /
/// `LoadCatalog` / `Checkpoint`) used by the query service and the shell.
/// Commits are incremental: a batch carries the pages of the relations
/// whose content changed since the store's last acknowledged commit, plus
/// a new catalog heap that points at the existing heaps for the rest.
/// The store serializes its own mutations on an internal annotated mutex
/// (the WAL and staging pager are `CCDB_GUARDED_BY` it), so the documented
/// "commits are serialized" contract is machine-checked rather than an
/// obligation on callers; `stats()` may be called concurrently (it takes
/// the same lock).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "data/database.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "util/mutex.h"
#include "util/status.h"

namespace ccdb {

/// CRC-32 (IEEE 802.3 polynomial, as in zlib) over a byte range.
uint32_t Crc32(const uint8_t* data, size_t len);

/// Point-in-time snapshot of a WAL's counters.
struct WalStats {
  uint64_t bytes_appended = 0;      ///< log bytes written by commits
  uint64_t batches_committed = 0;   ///< acknowledged commits
  uint64_t fsyncs = 0;              ///< commit-record and header syncs
  uint64_t batches_recovered = 0;   ///< batches replayed by Open()
  uint64_t records_discarded = 0;   ///< torn/stale tail records dropped
  uint64_t apply_failures = 0;      ///< post-commit home-page write errors
  uint64_t checkpoints = 0;         ///< successful Truncate() calls
  /// Totals over acknowledged catalog commits (`DurableStore`): relations
  /// serialized into new heaps, and relations whose heap was carried over
  /// unchanged from the previous commit.
  uint64_t relations_written = 0;
  uint64_t relations_reused = 0;
};

/// One dirty page queued for journaling: a full after-image.
struct WalFrame {
  PageId page_id = kInvalidPageId;
  Page image;
};

/// One committed batch decoded from its on-wire/on-disk record — what a
/// read replica applies. Produced by `ParseShippedBatch`.
struct ShippedBatch {
  uint64_t lsn = 0;
  PageId catalog_root = kInvalidPageId;
  /// Transaction id carried by the commit record; 0 for autocommit
  /// batches. A multi-statement transaction is exactly one batch, so a
  /// parsed record is always a whole transaction.
  uint64_t txn_id = 0;
  /// Client-minted idempotency key of the commit that produced this
  /// batch; 0 for local/unkeyed commits. Replicas feed it to the service
  /// dedup table so a retried COMMIT stays deduplicated across failover.
  uint64_t request_id = 0;
  std::vector<WalFrame> frames;
};

/// Validates and decodes one raw batch record (the exact bytes
/// `WriteAheadLog` journals: magic, LSN, root, frames, CRC-32, commit
/// marker). This is the same framing check recovery applies, so a replica
/// rejects a dropped/truncated/corrupted/reordered shipment exactly where
/// recovery would reject a torn tail. `expect_lsn` enforces the sequential
/// apply order (0 skips the check — used by tests).
Status ParseShippedBatch(const std::vector<uint8_t>& record,
                         uint64_t expect_lsn, ShippedBatch* out);

/// The page-chained redo log. See the file comment for the protocol.
class WriteAheadLog {
 public:
  explicit WriteAheadLog(PageManager* disk) : disk_(disk) {}

  /// Formats a fresh log: allocates the header and first log page and
  /// writes both. The header's page id (`header_page()`) is the root a
  /// later `Open` needs.
  Status Create();

  /// Opens an existing log: replays every committed batch onto the disk,
  /// discards the torn tail, and positions appends after the last
  /// committed record.
  Status Open(PageId header_page);

  /// Journals one batch; `catalog_root` is the batch's commit metadata
  /// (the catalog root the database has after this batch), `txn_id` tags
  /// the batch with the committing transaction (0 = autocommit), and
  /// `request_id` carries the client's idempotency key (0 = unkeyed).
  /// Returns OK iff the commit record is durable — the acknowledgment
  /// point. On failure the in-memory append position is rolled back so
  /// the next commit overwrites the torn record.
  Status CommitBatch(const std::vector<WalFrame>& frames, PageId catalog_root,
                     uint64_t txn_id = 0, uint64_t request_id = 0);

  /// Checkpoint: persists `catalog_root` and the LSN floor in the header,
  /// then zeroes the log chain so recovery replays nothing.
  Status Truncate(PageId catalog_root);

  /// Re-reads the log chain and returns the raw record bytes of every
  /// committed batch with LSN >= `from_lsn`, in LSN order (the shipping
  /// source for read replicas; each record round-trips through
  /// `ParseShippedBatch`). kOutOfRange when `from_lsn` is below the
  /// current LSN floor (a checkpoint truncated those records — the
  /// follower must re-bootstrap from a snapshot) or beyond `next_lsn()`.
  Status ReadCommittedRecords(uint64_t from_lsn,
                              std::vector<std::vector<uint8_t>>* out);

  PageId header_page() const { return header_page_; }

  /// LSN of the oldest record the log can still serve (advanced by
  /// Truncate to the post-checkpoint position).
  uint64_t lsn_floor() const { return lsn_floor_; }

  /// Catalog root recovered by Open() (or written by the last Truncate);
  /// kInvalidPageId when no batch has ever committed.
  PageId recovered_catalog_root() const { return recovered_root_; }

  uint64_t next_lsn() const { return next_lsn_; }
  size_t log_page_count() const { return log_pages_.size(); }

  WalStats stats() const {
    WalStats out;
    out.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
    out.batches_committed = batches_.load(std::memory_order_relaxed);
    out.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    out.batches_recovered = recovered_.load(std::memory_order_relaxed);
    out.records_discarded = discarded_.load(std::memory_order_relaxed);
    out.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    return out;
  }

  /// Bytes of log-page payload per page (the rest is the chain pointer).
  static constexpr size_t kPayloadSize = kPageSize - 8;

 private:
  /// Streams `bytes` into the log starting at `append_pos_`, writing every
  /// touched page; the final page write carries the record's tail.
  Status AppendBytes(const std::vector<uint8_t>& bytes);

  /// Writes the header page with the given root and LSN floor.
  Status WriteHeader(PageId catalog_root, uint64_t next_lsn);

  PageManager* disk_;
  PageId header_page_ = kInvalidPageId;
  std::vector<PageId> log_pages_;  // the chain, in order
  size_t append_pos_ = 0;          // byte offset into the payload stream
  Page tail_image_;                // in-memory image of the tail log page
  uint64_t next_lsn_ = 1;
  uint64_t lsn_floor_ = 1;
  PageId recovered_root_ = kInvalidPageId;

  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> checkpoints_{0};
};

/// A PageManager that stages writes for write-ahead logging.
///
/// Between `Begin()` and `Commit()`, writes land in an in-memory staging
/// map instead of the base disk, and reads resolve staged pages first —
/// so `HeapFile`/catalog code runs unmodified while its dirty pages are
/// captured for the batch. `Commit` journals the staged images through the
/// WAL (the acknowledgment point) and then applies them to their home
/// pages; images whose apply failed stay visible through the overlay until
/// a later apply or recovery fixes the base disk. Outside a batch, writes
/// pass straight through.
class WalPager : public PageManager {
 public:
  WalPager(PageManager* base, WriteAheadLog* wal) : base_(base), wal_(wal) {}

  /// Starts staging a batch. Batches do not nest.
  void Begin();

  /// Journals the staged pages with `catalog_root` (plus the committing
  /// transaction's id and the client's idempotency key, both 0 when
  /// absent) as commit metadata and applies them. Returns OK iff the
  /// batch is durable in the log; on failure the staged writes are
  /// discarded (the batch never happened).
  Status Commit(PageId catalog_root, uint64_t txn_id = 0,
                uint64_t request_id = 0);

  /// Discards the staged writes.
  void Abort();

  /// Retries any committed-but-unapplied images (used by checkpoint).
  Status ApplyUnapplied();

  bool in_batch() const { return in_batch_; }
  size_t unapplied_count() const { return unapplied_.size(); }
  uint64_t apply_failures() const {
    return apply_failures_.load(std::memory_order_relaxed);
  }

  /// Allocation failure inside a batch poisons it: callers like HeapFile
  /// ignore a failed Allocate and may never touch the bogus page again,
  /// so without the poison flag an "empty heap on an invalid page" could
  /// silently commit as the catalog root.
  PageId Allocate() override {
    PageId id = base_->Allocate();
    if (in_batch_ && id == kInvalidPageId) batch_poisoned_ = true;
    return id;
  }
  Status Read(PageId id, Page* out) override;
  Status Write(PageId id, const Page& page) override;
  size_t num_pages() const override { return base_->num_pages(); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  PageManager* base_;
  WriteAheadLog* wal_;
  bool in_batch_ = false;
  bool batch_poisoned_ = false;
  std::map<PageId, Page> staged_;     // current batch's dirty pages
  std::map<PageId, Page> unapplied_;  // committed, home write still pending
  std::atomic<uint64_t> apply_failures_{0};
};

/// The durable storage stack: base disk -> WAL -> staging pager -> buffer
/// pool, plus the catalog root the WAL last committed or recovered.
class DurableStore {
 public:
  /// Formats a fresh store on `disk` (not owned; must outlive the store).
  static Result<std::unique_ptr<DurableStore>> Create(
      PageManager* disk, size_t cache_capacity = 64);

  /// Reopens a store: runs WAL recovery, replaying committed batches and
  /// discarding the torn tail. `wal_root` is a previous store's
  /// `wal_root()`.
  static Result<std::unique_ptr<DurableStore>> Open(
      PageManager* disk, PageId wal_root, size_t cache_capacity = 64);

  /// Promotion path: adopts an existing disk whose pages already hold a
  /// consistent catalog at `catalog_root` (a caught-up replica's state)
  /// and formats a *fresh* WAL on it, making the store writable. Unlike
  /// `Open`, nothing is replayed — the replica applied every shipped
  /// batch before calling this. The next commit starts at LSN 1 of the
  /// new leader's log.
  static Result<std::unique_ptr<DurableStore>> CreateAtRoot(
      PageManager* disk, PageId catalog_root, size_t cache_capacity = 64);

  /// Saves `db` as one logged atomic batch (a snapshot read view works —
  /// `db` is only read through its virtual interface). Only relations
  /// whose content stamp differs from the last acknowledged commit's are
  /// serialized; the first commit after `Create`, `Open` or `CreateAtRoot`
  /// rewrites every relation. `txn_id` tags the
  /// batch's commit record (0 = autocommit), making a multi-statement
  /// transaction exactly one all-or-nothing batch for recovery and the
  /// shipping replica. Returns OK iff the batch is durable — the write is
  /// acknowledged only after the WAL commit record is on disk. On failure
  /// the store's state is unchanged.
  Status CommitCatalog(const Database& db, uint64_t txn_id = 0,
                       uint64_t request_id = 0) CCDB_EXCLUDES(mu_);

  /// Loads the last committed catalog (empty when none was ever
  /// committed).
  Result<Database> LoadCatalog() CCDB_EXCLUDES(mu_);

  /// Applies any pending images and truncates the log.
  Status Checkpoint() CCDB_EXCLUDES(mu_);

  // --- Replication (the WAL-shipping leader side) ---

  /// A consistent point-in-time image for replica bootstrap: every disk
  /// page (read through the staging overlay, so committed-but-unapplied
  /// images are included), the catalog root, and the LSN the follower is
  /// caught up to after loading it.
  struct ReplicationSnapshot {
    uint64_t next_lsn = 1;           ///< follower is at next_lsn - 1
    PageId catalog_root = kInvalidPageId;
    std::vector<Page> pages;         ///< page id = vector index
  };
  Result<ReplicationSnapshot> SnapshotForReplica() CCDB_EXCLUDES(mu_);

  /// Raw committed batch records with LSN >= `from_lsn`, in order, plus
  /// the current `*next_lsn` (what the follower should ask for next).
  /// kOutOfRange when the log can no longer serve `from_lsn` (checkpoint
  /// truncated it, or the follower is ahead of this leader) — the
  /// follower must re-bootstrap from `SnapshotForReplica`.
  Status ReadShipment(uint64_t from_lsn,
                      std::vector<std::vector<uint8_t>>* records,
                      uint64_t* next_lsn) CCDB_EXCLUDES(mu_);

  /// The WAL header page id — the single root needed to `Open` the store.
  PageId wal_root() const CCDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return wal_.header_page();
  }
  PageId catalog_root() const CCDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return catalog_root_;
  }

  /// The LSN the next commit will receive (health surface: `wal.lsn`).
  uint64_t next_lsn() const CCDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return wal_.next_lsn();
  }

  WalStats stats() const CCDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    WalStats out = wal_.stats();
    out.apply_failures = wal_pager_.apply_failures();
    out.relations_written = relations_written_;
    out.relations_reused = relations_reused_;
    return out;
  }

  BufferPool* pool() { return &pool_; }

 private:
  DurableStore(PageManager* disk, size_t cache_capacity)
      : disk_(disk), wal_(disk), wal_pager_(disk, &wal_),
        pool_(&wal_pager_, cache_capacity) {}

  PageManager* disk_;
  /// Serializes commits, checkpoints, and loads against each other: the
  /// whole WAL/staging stack below is single-writer by construction.
  mutable Mutex mu_ CCDB_LOCK_ORDER(
      "storage.pager", "storage.pool_shard", "storage.fault")
      {"storage.store"};
  WriteAheadLog wal_ CCDB_GUARDED_BY(mu_);
  WalPager wal_pager_ CCDB_GUARDED_BY(mu_);
  /// Internally synchronized; reads through it are additionally serialized
  /// against commits by the service's exclusive catalog lock.
  BufferPool pool_;
  PageId catalog_root_ CCDB_GUARDED_BY(mu_) = kInvalidPageId;
  /// Heaps of the last acknowledged commit — what the next commit may
  /// reuse. Empty until this store object acknowledges its first commit.
  SavedHeaps heaps_ CCDB_GUARDED_BY(mu_);
  uint64_t relations_written_ CCDB_GUARDED_BY(mu_) = 0;
  uint64_t relations_reused_ CCDB_GUARDED_BY(mu_) = 0;
};

}  // namespace ccdb

#endif  // CCDB_STORAGE_WAL_H_
