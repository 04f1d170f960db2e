#include "data/snapshot.h"

#include <utility>

namespace ccdb {

MvccCatalog::MvccCatalog() : current_(std::make_shared<const Database>()) {}

void MvccCatalog::Seed(const Database& seed) {
  auto copy = std::make_shared<const Database>(seed);
  MutexLock lock(mu_);
  current_ = std::move(copy);
  epoch_ = 1;
}

SnapshotPtr MvccCatalog::Snapshot(uint64_t* epoch) const {
  MutexLock lock(mu_);
  if (epoch != nullptr) *epoch = epoch_;
  return current_;
}

uint64_t MvccCatalog::PublishSnapshot(SnapshotPtr next) {
  MutexLock lock(mu_);
  // `next` leaves holding the previous snapshot, so when that was its last
  // pin, it and any relation only it held are freed after the unlock, off
  // the path every reader's pin takes.
  current_.swap(next);
  return ++epoch_;
}

uint64_t MvccCatalog::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

}  // namespace ccdb
