#ifndef CCDB_OBS_REGISTRY_H_
#define CCDB_OBS_REGISTRY_H_

/// \file registry.h
/// A lock-cheap cross-layer metrics registry.
///
/// `MetricsRegistry` is the single sink the engine's layers publish into:
/// monotone `Counter`s (sharded cache-line-padded atomics — concurrent
/// writers land on different lines and never take a lock), fixed-bucket
/// log2-scale `Histogram`s (one atomic bump per sample), and point-in-time
/// gauges. Registration (name → handle) takes a mutex once; the hot path
/// is handle-based and lock-free. Snapshots are taken without stopping
/// writers (counters are summed with relaxed loads — each value is exact
/// for quiesced writers, monotone-approximate while racing).
///
/// Every metric name must be declared in `obs/metric_names.h`, emitted
/// somewhere in `src/`, and documented in DESIGN.md ("Observability");
/// `tools/ccdb_lint.py` (a ctest) enforces all three.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace ccdb::obs {

/// A monotone counter sharded over cache-line-padded cells: concurrent
/// writers pick a cell by thread id, so increments never contend on one
/// line. Value() sums the cells.
class Counter {
 public:
  static constexpr size_t kCells = 8;

  void Add(uint64_t n = 1);
  void Increment() { Add(1); }
  uint64_t Value() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_;
};

/// A log2-bucketed histogram of non-negative integer samples. Bucket `i`
/// holds samples whose bit width is `i` — bucket 0 is the value 0, bucket
/// i >= 1 covers [2^(i-1), 2^i - 1] — so one `Record` is a single relaxed
/// atomic increment and the value range up to 2^39 fits in 40 buckets.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(uint64_t value);

  struct Snapshot {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// Nearest-rank percentile, resolved to the `BucketUpperBound` of the
    /// bucket holding the rank (a conservative estimate: the true sample
    /// is <= the returned value, within a factor of 2 below the overflow
    /// bucket, whose bound is UINT64_MAX).
    uint64_t PercentileUpperBound(double fraction) const;

    /// Largest sample value bucket `i` can hold: 0 for bucket 0,
    /// 2^i - 1 for 1 <= i < kBuckets - 1, UINT64_MAX for the overflow
    /// bucket (exposition renders it as +Inf).
    static uint64_t BucketUpperBound(size_t i);

    /// Cumulative counts: entry i is the number of samples <=
    /// BucketUpperBound(i). Monotone; the last entry equals `count`.
    std::array<uint64_t, kBuckets> CumulativeCounts() const;

    /// One line: "name: n=…, mean=…, p50<=…, p90<=…, p99<=…, max<=…".
    std::string ToString() const;
  };
  Snapshot snapshot() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Named counters, histograms, and gauges. Handles returned by Get* are
/// stable for the registry's lifetime; the same name always yields the
/// same handle.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or registers a counter.
  Counter* GetCounter(const std::string& name);

  /// Finds or registers a histogram.
  Histogram* GetHistogram(const std::string& name);

  /// Publishes a point-in-time value (overwrites any previous one).
  void SetGauge(const std::string& name, uint64_t value);

  struct Snapshot {
    /// Counter and gauge values, sorted by name.
    std::vector<std::pair<std::string, uint64_t>> values;
    std::vector<Histogram::Snapshot> histograms;
    /// Names in `values` that are gauges (point-in-time, may go down);
    /// everything else is a monotone counter. Exposition uses this to
    /// emit the right `# TYPE`.
    std::set<std::string> gauges;

    /// The value registered under `name`, or 0 when absent.
    uint64_t Value(const std::string& name) const;
  };
  Snapshot TakeSnapshot() const;

  /// Multi-line "name value" dump followed by histogram lines.
  std::string ToString() const;

 private:
  // The maps are guarded; the Counter/Histogram objects they own are
  // internally atomic, so handles returned by Get* are written lock-free.
  mutable Mutex mu_{"obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CCDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CCDB_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> gauges_ CCDB_GUARDED_BY(mu_);
};

}  // namespace ccdb::obs

#endif  // CCDB_OBS_REGISTRY_H_
