#include "service/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ccdb::service {

namespace {

/// Where the nearest-rank `fraction` of `samples` lands once sorted.
std::vector<double>::iterator NearestRankPosition(std::vector<double>& samples,
                                                  double fraction) {
  auto rank = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(samples.size())));
  rank = std::min(std::max<size_t>(rank, 1), samples.size());
  return samples.begin() + (rank - 1);
}

}  // namespace

double NearestRankPercentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0;
  auto nth = NearestRankPosition(samples, fraction);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

void LatencyRecorder::Record(double micros) {
  MutexLock lock(mu_);
  if (count_ == 0 || micros < min_) min_ = micros;
  sum_ += micros;
  if (window_.size() < kWindow) {
    window_.push_back(micros);
  } else {
    window_[count_ % kWindow] = micros;
  }
  ++count_;
}

LatencyRecorder::Summary LatencyRecorder::Summarize() const {
  Summary out;
  std::vector<double> window;
  {
    MutexLock lock(mu_);
    out.count = count_;
    if (count_ == 0) return out;
    out.min_us = min_;
    out.mean_us = sum_ / static_cast<double>(count_);
    window = window_;
  }
  // One copy, two selections, outside the lock so Record never waits on
  // them: the p99 rank first, then the p50 rank among the samples the
  // first selection left below it.
  auto p99 = NearestRankPosition(window, 0.99);
  std::nth_element(window.begin(), p99, window.end());
  auto p50 = NearestRankPosition(window, 0.50);
  std::nth_element(window.begin(), p50, p99);
  out.p50_us = *p50;
  out.p99_us = *p99;
  return out;
}

std::string ServiceMetrics::ToString() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "queries:  submitted %llu, completed %llu, failed %llu, "
                "rejected %llu\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "service:  %llu workers, %llu sessions, queue depth %llu "
                "(high water %llu)\n",
                static_cast<unsigned long long>(workers),
                static_cast<unsigned long long>(sessions),
                static_cast<unsigned long long>(queue_depth),
                static_cast<unsigned long long>(queue_high_water));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "          %llu slow (threshold), %llu traced\n",
                static_cast<unsigned long long>(slow_queries),
                static_cast<unsigned long long>(traced_queries));
  out += buf;
  out += "engine:   " + engine.ToString() + "\n";
  const uint64_t lookups = cache_hits + cache_misses;
  std::snprintf(buf, sizeof(buf),
                "cache:    %llu hits / %llu lookups (%.1f%%), %llu entries\n",
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(lookups),
                lookups ? 100.0 * static_cast<double>(cache_hits) /
                              static_cast<double>(lookups)
                        : 0.0,
                static_cast<unsigned long long>(cache_entries));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "txn:      %llu begun, %llu committed, %llu rolled back, "
                "%llu conflicts, epoch %llu\n",
                static_cast<unsigned long long>(txn_begins),
                static_cast<unsigned long long>(txn_commits),
                static_cast<unsigned long long>(txn_rollbacks),
                static_cast<unsigned long long>(txn_conflicts),
                static_cast<unsigned long long>(catalog_epoch));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "governance: %llu deadline, %llu budget, %llu cancelled, "
                "%llu shed, %llu truncated\n",
                static_cast<unsigned long long>(deadline_hits),
                static_cast<unsigned long long>(budget_trips),
                static_cast<unsigned long long>(cancels),
                static_cast<unsigned long long>(sheds),
                static_cast<unsigned long long>(truncated));
  out += buf;
  std::snprintf(buf, sizeof(buf), "storage:  %llu pages read\n",
                static_cast<unsigned long long>(pages_read));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "wal:      %llu batches, %llu bytes, %llu fsyncs, "
                "%llu checkpoints, %llu relations written, %llu reused\n",
                static_cast<unsigned long long>(wal_batches),
                static_cast<unsigned long long>(wal_bytes),
                static_cast<unsigned long long>(wal_fsyncs),
                static_cast<unsigned long long>(wal_checkpoints),
                static_cast<unsigned long long>(wal_relations_written),
                static_cast<unsigned long long>(wal_relations_reused));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "latency:  n=%llu, min %.1fus, mean %.1fus, p50 %.1fus, "
                "p99 %.1fus",
                static_cast<unsigned long long>(latency_count), latency_min_us,
                latency_mean_us, latency_p50_us, latency_p99_us);
  out += buf;
  for (const obs::Histogram::Snapshot& h : histograms) {
    out += "\nhist:     " + h.ToString();
  }
  return out;
}

}  // namespace ccdb::service
