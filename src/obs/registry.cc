#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>

namespace ccdb::obs {

namespace {

/// A small per-thread cell index: threads spread over the cells, so
/// concurrent Add()s rarely share a cache line.
size_t ThreadCell() {
  static thread_local const size_t cell =
      std::hash<std::thread::id>()(std::this_thread::get_id()) %
      Counter::kCells;
  return cell;
}

}  // namespace

void Counter::Add(uint64_t n) {
  cells_[ThreadCell()].v.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Record(uint64_t value) {
  size_t bucket = static_cast<size_t>(std::bit_width(value));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t Histogram::Snapshot::PercentileUpperBound(double fraction) const {
  if (count == 0) return 0;
  auto rank = static_cast<uint64_t>(
      std::ceil(fraction * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  return UINT64_MAX;
}

uint64_t Histogram::Snapshot::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kBuckets - 1 || i >= 64) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

std::array<uint64_t, Histogram::kBuckets> Histogram::Snapshot::CumulativeCounts()
    const {
  std::array<uint64_t, kBuckets> out{};
  uint64_t running = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    running += buckets[i];
    out[i] = running;
  }
  return out;
}

std::string Histogram::Snapshot::ToString() const {
  char buf[224];
  const double mean =
      count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  std::snprintf(buf, sizeof(buf),
                "%s: n=%llu, mean=%.1f, p50<=%llu, p90<=%llu, p99<=%llu, "
                "max<=%llu",
                name.c_str(), static_cast<unsigned long long>(count), mean,
                static_cast<unsigned long long>(PercentileUpperBound(0.50)),
                static_cast<unsigned long long>(PercentileUpperBound(0.90)),
                static_cast<unsigned long long>(PercentileUpperBound(0.99)),
                static_cast<unsigned long long>(PercentileUpperBound(1.0)));
  return buf;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::SetGauge(const std::string& name, uint64_t value) {
  MutexLock lock(mu_);
  gauges_[name] = value;
}

uint64_t MetricsRegistry::Snapshot::Value(const std::string& name) const {
  for (const auto& [key, value] : values) {
    if (key == name) return value;
  }
  return 0;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot out;
  MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out.values.emplace_back(name, counter->Value());
  }
  for (const auto& [name, value] : gauges_) {
    out.values.emplace_back(name, value);
    out.gauges.insert(name);
  }
  // counters_ and gauges_ are each sorted; merge keeps the whole list
  // sorted only if names interleave — sort to be safe.
  std::sort(out.values.begin(), out.values.end());
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->snapshot();
    snap.name = name;
    out.histograms.push_back(std::move(snap));
  }
  return out;
}

std::string MetricsRegistry::ToString() const {
  Snapshot snap = TakeSnapshot();
  std::string out;
  for (const auto& [name, value] : snap.values) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-28s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  for (const Histogram::Snapshot& histogram : snap.histograms) {
    out += histogram.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace ccdb::obs
