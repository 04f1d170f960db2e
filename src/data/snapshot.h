#ifndef CCDB_DATA_SNAPSHOT_H_
#define CCDB_DATA_SNAPSHOT_H_

/// \file snapshot.h
/// The MVCC catalog cell.
///
/// The service publishes its catalog as a chain of immutable `Database`
/// snapshots. A commit copies the current snapshot (a map of shared
/// relation pointers, never tuple data; see `data/database.h`), writes
/// into the copy, and installs it with one pointer swap under a short
/// mutex. Readers pin the current snapshot once and then run against
/// frozen state: a committing writer can never block, tear or change a
/// running query. A copy that is never published (say, because the WAL
/// commit failed) leaves no trace, version counters included, which makes
/// "a failed commit keeps the exact pre-commit versions" structural rather
/// than a rollback path.
///
/// `tools/ccdb_lint.py` confines `PublishSnapshot` to this pair of files
/// and the query service's commit path: every other layer reads snapshots
/// or goes through the service's write API.

#include <cstdint>
#include <memory>

#include "data/database.h"
#include "util/mutex.h"

namespace ccdb {

/// A pinned, immutable catalog version.
using SnapshotPtr = std::shared_ptr<const Database>;

/// The mutable cell holding the current published snapshot and the epoch
/// it was published at.
///
/// `Snapshot()` is the only thing readers ever lock (a pointer copy under
/// a short mutex); `PublishSnapshot()` is the only way state changes.
/// Commit *ordering* — conflict checks, WAL durability before visibility —
/// is the caller's protocol; this class only guarantees that publication
/// is atomic and epochs strictly increase.
class MvccCatalog {
 public:
  /// Starts at the empty catalog, epoch 1.
  MvccCatalog();

  MvccCatalog(const MvccCatalog&) = delete;
  MvccCatalog& operator=(const MvccCatalog&) = delete;

  /// Replaces the current snapshot with a copy of `seed`, version counters
  /// kept, at epoch 1. Bootstrap only: must run before any reader or
  /// publisher exists.
  void Seed(const Database& seed) CCDB_EXCLUDES(mu_);

  /// Pins the current snapshot, and stores the epoch it was published at
  /// in `*epoch` when `epoch` is not null.
  SnapshotPtr Snapshot(uint64_t* epoch = nullptr) const CCDB_EXCLUDES(mu_);

  /// Installs `next` as current at the next epoch and returns that epoch.
  /// Callers serialize commits externally (the service's commit mutex):
  /// concurrent publishes would be atomic but unordered.
  uint64_t PublishSnapshot(SnapshotPtr next) CCDB_EXCLUDES(mu_);

  /// Epoch of the current snapshot.
  uint64_t epoch() const CCDB_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{"catalog.cell"};
  SnapshotPtr current_ CCDB_GUARDED_BY(mu_);
  uint64_t epoch_ CCDB_GUARDED_BY(mu_) = 1;
};

}  // namespace ccdb

#endif  // CCDB_DATA_SNAPSHOT_H_
