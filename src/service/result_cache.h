#ifndef CCDB_SERVICE_RESULT_CACHE_H_
#define CCDB_SERVICE_RESULT_CACHE_H_

/// \file result_cache.h
/// LRU result cache for the query service.
///
/// A cache entry is the outcome of one script: its final step's name and
/// relation. That is everything a hit needs, because a script's other
/// steps are local to it — executing the script registers only the final
/// step in the session, and so does a hit. For a cacheable query the
/// service keys on the canonical text of its statements (which parses like
/// the script; `lang::CanonicalizeScript`) and the (name, version) pairs
/// of the base relations it reads — replacing an input relation bumps its
/// version and silently invalidates every dependent entry (stale keys can
/// never hit; stale entries age out of the LRU).

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "data/relation.h"
#include "util/mutex.h"

namespace ccdb::service {

/// The cached outcome of one script execution.
struct CachedResult {
  std::string step;   ///< name of the final step
  Relation relation;  ///< the final step's relation
};

/// Thread-safe LRU map from cache key to CachedResult.
///
/// Entries are immutable and shared: a hit hands out a
/// `shared_ptr<const CachedResult>`, so only the pointer is copied under
/// the cache mutex — concurrent hits on large results no longer serialize
/// on deep copies inside the critical section. Callers copy the relations
/// they need (if any) outside the lock.
class ResultCache {
 public:
  /// `capacity` entries; 0 disables the cache (lookups always miss,
  /// inserts are dropped).
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }

  /// On hit, marks the entry most-recent and returns it; nullptr on miss.
  /// Counts a hit or a miss either way.
  std::shared_ptr<const CachedResult> Lookup(const std::string& key);

  /// Inserts (or refreshes) an entry, evicting the least-recent one when
  /// over capacity. No-op when disabled.
  void Insert(const std::string& key, CachedResult value);

  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
  };
  Stats stats() const;

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const CachedResult>>;

  mutable Mutex mu_{"service.result_cache"};
  const size_t capacity_;  // immutable after construction; read off-lock
  // LRU list: front = most recent. Map gives O(1) lookup into the list.
  std::list<Entry> lru_ CCDB_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      CCDB_GUARDED_BY(mu_);
  uint64_t hits_ CCDB_GUARDED_BY(mu_) = 0;
  uint64_t misses_ CCDB_GUARDED_BY(mu_) = 0;
};

}  // namespace ccdb::service

#endif  // CCDB_SERVICE_RESULT_CACHE_H_
