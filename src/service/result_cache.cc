#include "service/result_cache.h"

namespace ccdb::service {

std::shared_ptr<const CachedResult> ResultCache::Lookup(
    const std::string& key) {
  if (!enabled()) return nullptr;
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  return lru_.begin()->second;
}

void ResultCache::Insert(const std::string& key, CachedResult value) {
  if (!enabled()) return;
  // Build the shared entry before taking the lock: the move of the
  // relation must not happen inside the critical section.
  auto entry = std::make_shared<const CachedResult>(std::move(value));
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void ResultCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(mu_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.entries = lru_.size();
  return out;
}

}  // namespace ccdb::service
