#include "storage/wal.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <set>

#include "util/lock_graph.h"

namespace ccdb {

namespace {

// On-disk framing constants. A batch record is
//   [u32 kBatchMagic][u64 lsn][u64 catalog_root][u64 txn_id]
//   [u64 request_id][u32 n_frames]
//   n_frames x ([u64 page_id][kPageSize image])
//   [u32 crc over lsn..frames][u32 kCommitMagic]
// streamed across log pages of layout [u64 next][payload]. `txn_id` is 0
// for autocommit batches; a multi-statement transaction commits as ONE
// batch carrying its id, so batch atomicity (one CRC-framed record,
// all-or-nothing replay) *is* transaction atomicity — recovery and the
// shipping replica never see a partial transaction by construction.
// `request_id` (0 = unkeyed) is the client's idempotency key, journaled
// so a promoted replica can seed its commit dedup table from the log.
constexpr uint32_t kHeaderMagic = 0x57414C48;  // "WALH"
constexpr uint32_t kBatchMagic = 0x57414C42;   // "WALB"
constexpr uint32_t kCommitMagic = 0x57414C43;  // "WALC"
constexpr size_t kFrameSize = 8 + kPageSize;
constexpr size_t kRecordHeader = 40;  // magic + lsn + root + txn + req + n
constexpr size_t kRecordOverhead = kRecordHeader + 8;  // + crc + commit
constexpr uint32_t kMaxFrames = 1u << 20;   // sanity bound while parsing

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
}

void AppendU32(std::vector<uint8_t>* buf, uint32_t v) {
  uint8_t tmp[4];
  StoreU32(tmp, v);
  buf->insert(buf->end(), tmp, tmp + 4);
}

void AppendU64(std::vector<uint8_t>* buf, uint64_t v) {
  uint8_t tmp[8];
  StoreU64(tmp, v);
  buf->insert(buf->end(), tmp, tmp + 8);
}

/// Outcome of probing one batch record at a stream position.
enum class RecordProbe {
  kNone,       ///< no record starts here (end of log, or zeroed space)
  kTorn,       ///< a record starts but fails validation (torn/corrupt)
  kCommitted,  ///< a whole, CRC-intact, committed record
};

/// Parsed header of a committed record (frames are decoded separately).
struct RecordView {
  uint64_t lsn = 0;
  PageId catalog_root = kInvalidPageId;
  uint64_t txn_id = 0;      ///< 0 = autocommit batch
  uint64_t request_id = 0;  ///< 0 = unkeyed commit
  uint32_t n_frames = 0;
  size_t frames_at = 0;    ///< offset of the first frame, from record start
  size_t total_size = 0;   ///< whole record incl. CRC and commit marker
};

/// The one framing check shared by recovery, shipping re-reads, and the
/// replica's apply path: magic, bounded frame count, full body present,
/// CRC-32 over the body, commit marker, and (when `expect_lsn` != 0) the
/// exactly-sequential LSN rule.
RecordProbe ProbeRecord(const uint8_t* data, size_t len, size_t pos,
                        uint64_t expect_lsn, RecordView* out) {
  if (len - pos < kRecordOverhead) return RecordProbe::kNone;
  if (LoadU32(data + pos) != kBatchMagic) return RecordProbe::kNone;
  out->lsn = LoadU64(data + pos + 4);
  out->catalog_root = LoadU64(data + pos + 12);
  out->txn_id = LoadU64(data + pos + 20);
  out->request_id = LoadU64(data + pos + 28);
  out->n_frames = LoadU32(data + pos + 36);
  if (out->n_frames > kMaxFrames) return RecordProbe::kTorn;
  const size_t body =
      kRecordHeader + static_cast<size_t>(out->n_frames) * kFrameSize;
  if (len - pos < body + 8) return RecordProbe::kTorn;
  const uint32_t crc = LoadU32(data + pos + body);
  const uint32_t commit = LoadU32(data + pos + body + 4);
  if (commit != kCommitMagic || crc != Crc32(data + pos + 4, body - 4) ||
      (expect_lsn != 0 && out->lsn != expect_lsn)) {
    return RecordProbe::kTorn;
  }
  out->frames_at = kRecordHeader;
  out->total_size = body + 8;
  return RecordProbe::kCommitted;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  // Slicing-by-8: table[k][b] is the CRC state after byte b followed by k
  // zero bytes, so eight input bytes fold into the state with eight
  // independent lookups instead of eight dependent ones.
  static const auto table = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = LoadU32(data) ^ crc;
    const uint32_t hi = LoadU32(data + 4);
    crc = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff] ^
          table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24] ^
          table[3][hi & 0xff] ^ table[2][(hi >> 8) & 0xff] ^
          table[1][(hi >> 16) & 0xff] ^ table[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = table[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- WriteAheadLog ----------------------------------------------------------------

Status WriteAheadLog::Create() {
  header_page_ = disk_->Allocate();
  if (header_page_ == kInvalidPageId) {
    return Status::IoError("WAL header page allocation failed");
  }
  PageId first = disk_->Allocate();
  if (first == kInvalidPageId) {
    return Status::IoError("WAL log page allocation failed");
  }
  log_pages_.assign(1, first);
  append_pos_ = 0;
  next_lsn_ = 1;
  lsn_floor_ = 1;
  recovered_root_ = kInvalidPageId;
  tail_image_.Zero();
  StoreU64(tail_image_.bytes(), kInvalidPageId);
  CCDB_RETURN_IF_ERROR(disk_->Write(first, tail_image_));
  return WriteHeader(kInvalidPageId, next_lsn_);
}

Status WriteAheadLog::Open(PageId header_page) {
  header_page_ = header_page;
  Page header;
  CCDB_RETURN_IF_ERROR(disk_->Read(header_page, &header));
  if (LoadU32(header.bytes()) != kHeaderMagic) {
    return Status::IoError("page " + std::to_string(header_page) +
                           " is not a WAL header");
  }
  const PageId first = LoadU64(header.bytes() + 4);
  const PageId header_root = LoadU64(header.bytes() + 12);
  const uint64_t lsn_floor = LoadU64(header.bytes() + 20);

  // Walk the log chain. An unreadable or repeated next pointer — or one
  // aimed at the header — ends the chain (a torn tail page cannot corrupt
  // the links before it).
  log_pages_.clear();
  std::vector<Page> images;
  std::vector<uint8_t> stream;
  std::set<PageId> visited;
  PageId current = first;
  while (current != kInvalidPageId && current != header_page_ &&
         visited.insert(current).second) {
    Page page;
    if (!disk_->Read(current, &page).ok()) break;
    log_pages_.push_back(current);
    stream.insert(stream.end(), page.bytes() + 8, page.bytes() + kPageSize);
    images.push_back(page);
    current = LoadU64(page.bytes());
  }
  if (log_pages_.empty()) {
    return Status::IoError("WAL log chain is unreadable from page " +
                           std::to_string(first));
  }

  // Parse and replay committed batches. Records must be exactly
  // sequentially numbered starting at the header's LSN floor — anything
  // else (torn tail, pre-checkpoint leftovers, garbage) ends the log.
  size_t pos = 0;
  uint64_t expect = lsn_floor;
  PageId root = header_root;
  while (true) {
    RecordView view;
    RecordProbe probe =
        ProbeRecord(stream.data(), stream.size(), pos, expect, &view);
    if (probe == RecordProbe::kNone) break;
    if (probe == RecordProbe::kTorn) {
      discarded_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    // Committed: redo every page image (idempotent).
    for (uint32_t f = 0; f < view.n_frames; ++f) {
      const size_t frame =
          pos + view.frames_at + static_cast<size_t>(f) * kFrameSize;
      const PageId page_id = LoadU64(&stream[frame]);
      Page image;
      std::memcpy(image.bytes(), &stream[frame + 8], kPageSize);
      CCDB_RETURN_IF_ERROR(disk_->Write(page_id, image));
    }
    recovered_.fetch_add(1, std::memory_order_relaxed);
    root = view.catalog_root;
    ++expect;
    pos += view.total_size;
  }

  lsn_floor_ = lsn_floor;
  next_lsn_ = expect;
  recovered_root_ = root;
  append_pos_ = pos;
  size_t tail_index = pos / kPayloadSize;
  if (tail_index >= log_pages_.size()) {
    // The stream ended exactly at a page boundary with no successor (only
    // possible after unlucky tearing): extend the chain by one page,
    // persisting the successor before linking it.
    PageId fresh = disk_->Allocate();
    if (fresh == kInvalidPageId) {
      return Status::IoError("WAL log page allocation failed during open");
    }
    Page empty;
    empty.Zero();
    StoreU64(empty.bytes(), kInvalidPageId);
    CCDB_RETURN_IF_ERROR(disk_->Write(fresh, empty));
    StoreU64(images.back().bytes(), fresh);
    CCDB_RETURN_IF_ERROR(disk_->Write(log_pages_.back(), images.back()));
    log_pages_.push_back(fresh);
    images.push_back(empty);
  }
  tail_image_ = images[tail_index];
  return Status::OK();
}

Status WriteAheadLog::AppendBytes(const std::vector<uint8_t>& bytes) {
  const size_t pos = append_pos_;
  size_t i = pos / kPayloadSize;
  size_t off = pos % kPayloadSize;
  if (i >= log_pages_.size()) {
    return Status::Internal("WAL tail position beyond the log chain");
  }
  size_t consumed = 0;
  while (consumed < bytes.size()) {
    const size_t n = std::min(kPayloadSize - off, bytes.size() - consumed);
    std::memcpy(tail_image_.bytes() + 8 + off, bytes.data() + consumed, n);
    consumed += n;
    off += n;
    if (off == kPayloadSize) {
      // Page full: link a successor (reusing the chain when one exists)
      // before flushing, so a flushed-full page always points onward.
      if (i + 1 >= log_pages_.size()) {
        const PageId fresh = disk_->Allocate();
        if (fresh == kInvalidPageId) {
          return Status::IoError("WAL log page allocation failed");
        }
        // Persist the successor as an explicit end-of-chain page BEFORE
        // linking it: a linked page must never carry garbage in its next
        // field (a fresh all-zero page would read as "next = page 0" and
        // send the recovery walk into the header).
        Page empty;
        empty.Zero();
        StoreU64(empty.bytes(), kInvalidPageId);
        CCDB_RETURN_IF_ERROR(disk_->Write(fresh, empty));
        log_pages_.push_back(fresh);
      }
      StoreU64(tail_image_.bytes(), log_pages_[i + 1]);
      CCDB_RETURN_IF_ERROR(disk_->Write(log_pages_[i], tail_image_));
      ++i;
      off = 0;
      tail_image_.Zero();
      StoreU64(tail_image_.bytes(),
               i + 1 < log_pages_.size() ? log_pages_[i + 1] : kInvalidPageId);
    }
  }
  if (off > 0) {
    StoreU64(tail_image_.bytes(),
             i + 1 < log_pages_.size() ? log_pages_[i + 1] : kInvalidPageId);
    CCDB_RETURN_IF_ERROR(disk_->Write(log_pages_[i], tail_image_));
  }
  append_pos_ = pos + bytes.size();
  return Status::OK();
}

Status WriteAheadLog::CommitBatch(const std::vector<WalFrame>& frames,
                                  PageId catalog_root, uint64_t txn_id,
                                  uint64_t request_id) {
  std::vector<uint8_t> record;
  record.reserve(kRecordOverhead + frames.size() * kFrameSize);
  AppendU32(&record, kBatchMagic);
  AppendU64(&record, next_lsn_);
  AppendU64(&record, catalog_root);
  AppendU64(&record, txn_id);
  AppendU64(&record, request_id);
  AppendU32(&record, static_cast<uint32_t>(frames.size()));
  for (const WalFrame& frame : frames) {
    AppendU64(&record, frame.page_id);
    record.insert(record.end(), frame.image.bytes(),
                  frame.image.bytes() + kPageSize);
  }
  const size_t body = record.size();
  AppendU32(&record, Crc32(record.data() + 4, body - 4));
  AppendU32(&record, kCommitMagic);

  // On failure, roll the tail back to the record start so the next commit
  // overwrites the torn bytes instead of appending after them.
  const size_t saved_pos = append_pos_;
  const Page saved_tail = tail_image_;
  Status appended = AppendBytes(record);
  if (!appended.ok()) {
    append_pos_ = saved_pos;
    tail_image_ = saved_tail;
    return appended;
  }
  ++next_lsn_;
  bytes_appended_.fetch_add(record.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  CCDB_NOTE_BLOCKING_CALL("wal.fsync");
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WriteAheadLog::Truncate(PageId catalog_root) {
  // Header first: once the root and LSN floor are durable, any records
  // still in the log are below the floor and recovery ignores them. The
  // reverse order could zero acknowledged batches before the root that
  // supersedes them is saved.
  CCDB_RETURN_IF_ERROR(WriteHeader(catalog_root, next_lsn_));
  recovered_root_ = catalog_root;
  lsn_floor_ = next_lsn_;
  // Reset the tail before zeroing: even if a zeroing write fails below,
  // new commits must overwrite from the front (their LSNs are at the
  // floor, so leftover old records can never be replayed).
  append_pos_ = 0;
  tail_image_.Zero();
  StoreU64(tail_image_.bytes(),
           log_pages_.size() > 1 ? log_pages_[1] : kInvalidPageId);
  Page zero;
  for (size_t i = 0; i < log_pages_.size(); ++i) {
    zero.Zero();
    StoreU64(zero.bytes(),
             i + 1 < log_pages_.size() ? log_pages_[i + 1] : kInvalidPageId);
    CCDB_RETURN_IF_ERROR(disk_->Write(log_pages_[i], zero));
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WriteAheadLog::ReadCommittedRecords(
    uint64_t from_lsn, std::vector<std::vector<uint8_t>>* out) {
  out->clear();
  if (from_lsn < lsn_floor_ || from_lsn > next_lsn_) {
    return Status::OutOfRange(
        "LSN " + std::to_string(from_lsn) + " outside the served window [" +
        std::to_string(lsn_floor_) + ", " + std::to_string(next_lsn_) + "]");
  }
  if (from_lsn == next_lsn_) return Status::OK();  // caught up

  // Rebuild the payload stream from disk — committed records occupy
  // exactly [0, append_pos_); every page up to there was durably written
  // by its commit's AppendBytes.
  std::vector<uint8_t> stream;
  stream.reserve(append_pos_);
  for (PageId id : log_pages_) {
    if (stream.size() >= append_pos_) break;
    Page page;
    CCDB_RETURN_IF_ERROR(disk_->Read(id, &page));
    stream.insert(stream.end(), page.bytes() + 8, page.bytes() + kPageSize);
  }
  if (stream.size() < append_pos_) {
    return Status::Internal("WAL chain shorter than its append position");
  }
  stream.resize(append_pos_);

  size_t pos = 0;
  uint64_t expect = lsn_floor_;
  while (pos < stream.size()) {
    RecordView view;
    if (ProbeRecord(stream.data(), stream.size(), pos, expect, &view) !=
        RecordProbe::kCommitted) {
      return Status::Internal("committed WAL record failed to re-parse at "
                              "LSN " + std::to_string(expect));
    }
    if (view.lsn >= from_lsn) {
      out->emplace_back(stream.begin() + static_cast<ptrdiff_t>(pos),
                        stream.begin() +
                            static_cast<ptrdiff_t>(pos + view.total_size));
    }
    ++expect;
    pos += view.total_size;
  }
  if (expect != next_lsn_) {
    return Status::Internal("WAL re-read stopped at LSN " +
                            std::to_string(expect) + ", expected " +
                            std::to_string(next_lsn_));
  }
  return Status::OK();
}

Status WriteAheadLog::WriteHeader(PageId catalog_root, uint64_t next_lsn) {
  Page header;
  header.Zero();
  StoreU32(header.bytes(), kHeaderMagic);
  StoreU64(header.bytes() + 4,
           log_pages_.empty() ? kInvalidPageId : log_pages_.front());
  StoreU64(header.bytes() + 12, catalog_root);
  StoreU64(header.bytes() + 20, next_lsn);
  CCDB_RETURN_IF_ERROR(disk_->Write(header_page_, header));
  CCDB_NOTE_BLOCKING_CALL("wal.fsync");
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ParseShippedBatch(const std::vector<uint8_t>& record,
                         uint64_t expect_lsn, ShippedBatch* out) {
  RecordView view;
  RecordProbe probe = ProbeRecord(record.data(), record.size(), 0, 0, &view);
  if (probe != RecordProbe::kCommitted) {
    return Status::InvalidArgument(
        "batch record rejected: " +
        std::string(probe == RecordProbe::kNone ? "no record framing"
                                                : "torn or corrupt record"));
  }
  if (view.total_size != record.size()) {
    return Status::InvalidArgument("batch record carries trailing bytes");
  }
  if (expect_lsn != 0 && view.lsn != expect_lsn) {
    return Status::OutOfRange("batch LSN " + std::to_string(view.lsn) +
                              ", expected " + std::to_string(expect_lsn) +
                              " (dropped or reordered shipment)");
  }
  out->lsn = view.lsn;
  out->catalog_root = view.catalog_root;
  out->txn_id = view.txn_id;
  out->request_id = view.request_id;
  out->frames.clear();
  out->frames.reserve(view.n_frames);
  for (uint32_t f = 0; f < view.n_frames; ++f) {
    const size_t at = view.frames_at + static_cast<size_t>(f) * kFrameSize;
    WalFrame frame;
    frame.page_id = LoadU64(&record[at]);
    std::memcpy(frame.image.bytes(), &record[at + 8], kPageSize);
    out->frames.push_back(std::move(frame));
  }
  return Status::OK();
}

// --- WalPager ---------------------------------------------------------------------

void WalPager::Begin() {
  assert(!in_batch_ && "WAL batches do not nest");
  staged_.clear();
  batch_poisoned_ = false;
  in_batch_ = true;
}

Status WalPager::Read(PageId id, Page* out) {
  if (in_batch_) {
    auto staged = staged_.find(id);
    if (staged != staged_.end()) {
      *out = staged->second;
      return Status::OK();
    }
  }
  auto pending = unapplied_.find(id);
  if (pending != unapplied_.end()) {
    *out = pending->second;
    return Status::OK();
  }
  return base_->Read(id, out);
}

Status WalPager::Write(PageId id, const Page& page) {
  if (in_batch_) {
    // Refuse to stage garbage ids (e.g. after a failed Allocate): a
    // journaled frame must be applicable to the base disk.
    if (id == kInvalidPageId) {
      return Status::IoError("staged write to an invalid page id");
    }
    staged_[id] = page;
    return Status::OK();
  }
  return base_->Write(id, page);
}

Status WalPager::Commit(PageId catalog_root, uint64_t txn_id,
                        uint64_t request_id) {
  in_batch_ = false;
  if (batch_poisoned_) {
    staged_.clear();
    return Status::IoError("page allocation failed during the batch");
  }
  std::vector<WalFrame> frames;
  frames.reserve(staged_.size());
  for (const auto& [id, image] : staged_) {
    frames.push_back(WalFrame{id, image});
  }
  Status committed =
      wal_->CommitBatch(frames, catalog_root, txn_id, request_id);
  if (!committed.ok()) {
    staged_.clear();
    return committed;
  }
  // Acknowledged. Apply to home pages; failures keep the image in the
  // overlay (reads stay correct) and recovery re-applies from the log.
  for (auto& [id, image] : staged_) {
    unapplied_[id] = std::move(image);
  }
  staged_.clear();
  // Best-effort eager apply: a failure here leaves the images in the
  // overlay for a later ApplyUnapplied or recovery — the batch is already
  // durably committed either way.
  IgnoreError(ApplyUnapplied());
  return Status::OK();
}

void WalPager::Abort() {
  staged_.clear();
  in_batch_ = false;
}

Status WalPager::ApplyUnapplied() {
  Status first_failure = Status::OK();
  for (auto it = unapplied_.begin(); it != unapplied_.end();) {
    Status applied = base_->Write(it->first, it->second);
    if (applied.ok()) {
      it = unapplied_.erase(it);
    } else {
      apply_failures_.fetch_add(1, std::memory_order_relaxed);
      if (first_failure.ok()) first_failure = applied;
      ++it;
    }
  }
  return first_failure;
}

// --- DurableStore -----------------------------------------------------------------

Result<std::unique_ptr<DurableStore>> DurableStore::Create(
    PageManager* disk, size_t cache_capacity) {
  std::unique_ptr<DurableStore> store(new DurableStore(disk, cache_capacity));
  MutexLock lock(store->mu_);
  CCDB_RETURN_IF_ERROR(store->wal_.Create());
  return store;
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    PageManager* disk, PageId wal_root, size_t cache_capacity) {
  std::unique_ptr<DurableStore> store(new DurableStore(disk, cache_capacity));
  MutexLock lock(store->mu_);
  CCDB_RETURN_IF_ERROR(store->wal_.Open(wal_root));
  store->catalog_root_ = store->wal_.recovered_catalog_root();
  return store;
}

Result<std::unique_ptr<DurableStore>> DurableStore::CreateAtRoot(
    PageManager* disk, PageId catalog_root, size_t cache_capacity) {
  std::unique_ptr<DurableStore> store(new DurableStore(disk, cache_capacity));
  MutexLock lock(store->mu_);
  // A fresh log on the adopted disk; the existing pages (including the
  // catalog at `catalog_root`) are untouched and become the new leader's
  // base state.
  CCDB_RETURN_IF_ERROR(store->wal_.Create());
  store->catalog_root_ = catalog_root;
  return store;
}

Status DurableStore::CommitCatalog(const Database& db, uint64_t txn_id,
                                   uint64_t request_id) {
  MutexLock lock(mu_);
  wal_pager_.Begin();
  SavedHeaps heaps;
  Result<PageId> root = SaveDatabase(&pool_, db, heaps_, &heaps);
  if (!root.ok()) {
    wal_pager_.Abort();
    pool_.Clear();  // drop cached copies of the aborted pages
    return root.status();
  }
  Status committed = wal_pager_.Commit(*root, txn_id, request_id);
  if (!committed.ok()) {
    pool_.Clear();
    return committed;
  }
  // Acknowledged: only now may the next commit point at these heaps. A
  // heap written by this batch has a freshly allocated first page, so an
  // unchanged first page means the heap was carried over.
  for (const auto& [name, heap] : heaps) {
    auto prior = heaps_.find(name);
    const bool reused = prior != heaps_.end() &&
                        prior->second.first_page == heap.first_page;
    ++(reused ? relations_reused_ : relations_written_);
  }
  heaps_ = std::move(heaps);
  catalog_root_ = *root;
  return Status::OK();
}

Result<Database> DurableStore::LoadCatalog() {
  MutexLock lock(mu_);
  if (catalog_root_ == kInvalidPageId) return Database{};
  return LoadDatabase(&pool_, catalog_root_);
}

Result<DurableStore::ReplicationSnapshot> DurableStore::SnapshotForReplica() {
  MutexLock lock(mu_);
  ReplicationSnapshot snap;
  snap.next_lsn = wal_.next_lsn();
  snap.catalog_root = catalog_root_;
  const size_t n = disk_->num_pages();
  snap.pages.resize(n);
  for (PageId id = 0; id < n; ++id) {
    // Through the staging overlay: a committed-but-unapplied image is the
    // page's true content (recovery would re-apply it).
    CCDB_RETURN_IF_ERROR(wal_pager_.Read(id, &snap.pages[id]));
  }
  return snap;
}

Status DurableStore::ReadShipment(uint64_t from_lsn,
                                  std::vector<std::vector<uint8_t>>* records,
                                  uint64_t* next_lsn) {
  MutexLock lock(mu_);
  *next_lsn = wal_.next_lsn();
  return wal_.ReadCommittedRecords(from_lsn, records);
}

Status DurableStore::Checkpoint() {
  MutexLock lock(mu_);
  // The log is the only redo copy of unapplied images — they must reach
  // their home pages before the log may be truncated.
  CCDB_RETURN_IF_ERROR(wal_pager_.ApplyUnapplied());
  return wal_.Truncate(catalog_root_);
}

}  // namespace ccdb
