#ifndef CCDB_BENCH_BENCH_COMMON_H_
#define CCDB_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// Shared harness for the §5.4 indexing experiments.
///
/// Methodology (matching the paper and the classic R*-tree evaluation
/// setup):
///  - data and query rectangles come from `data/workload.h` with the
///    paper's parameters (10,000 data boxes, 100 or 500 queries, coords in
///    [0,3000], extents in [1,100]), regenerated from fixed seeds;
///  - each strategy's index lives on its own simulated disk with no buffer
///    cache, so a query's *disk accesses* = R*-tree pages touched;
///  - the joint strategy searches one 2-D tree (an unqueried attribute is
///    widened to the domain, §5.4); the separate strategy searches both
///    1-D trees and intersects, paying the sum of the two searches.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ccdb.h"

// Set per bench target by bench/CMakeLists.txt.
#ifndef CCDB_BENCH_BUILD_TYPE
#define CCDB_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CCDB_BENCH_COMPILER
#define CCDB_BENCH_COMPILER "unknown"
#endif

namespace ccdb::bench {

// --- Machine-readable output (--json) ---------------------------------------------
//
// Every non-gbench harness accepts a `--json` flag. With it, results are
// emitted via `EmitResult` as one JSON object per line —
//   {"bench":"bench_service","name":"throughput_w4","value":123.4,
//    "unit":"qps","params":{"workers":4},"env":{"nproc":4,
//    "build_type":"Release","compiler":"GNU 13.2.0","git_describe":"..."}}
// — so CI can append them to the BENCH_*.json trajectory files without
// scraping tables, and every line says what machine and build made it.

/// Whether --json output is on (set by ParseBenchFlags).
inline bool& JsonOutputEnabled() {
  static bool enabled = false;
  return enabled;
}

/// Scans argv for benchmark-harness flags (currently just --json).
inline void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) JsonOutputEnabled() = true;
  }
}

/// The `"env"` object stamped on every --json line: online cores, build
/// type, compiler, and git describe. Git describe is read at run time from
/// CCDB_GIT_DESCRIBE (tools/record_bench.sh exports it); without it the
/// configure-time value is used, which goes stale once the tree moves on.
inline const std::string& EnvStamp() {
  static const std::string stamp = [] {
    const char* describe = std::getenv("CCDB_GIT_DESCRIBE");
    if (describe == nullptr || *describe == '\0') {
      describe = obs::BuildVersion();
    }
    return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ",\"build_type\":\"" + obs::JsonEscape(CCDB_BENCH_BUILD_TYPE) +
           "\",\"compiler\":\"" + obs::JsonEscape(CCDB_BENCH_COMPILER) +
           "\",\"git_describe\":\"" + obs::JsonEscape(describe) + "\"}";
  }();
  return stamp;
}

/// One (key, numeric value) parameter attached to a result.
struct BenchParam {
  const char* key;
  double value;
};

/// Reports one measured result. In --json mode prints a single JSON line;
/// otherwise a human-readable one.
inline void EmitResult(const char* bench, const char* name, double value,
                       const char* unit,
                       const std::vector<BenchParam>& params = {}) {
  if (JsonOutputEnabled()) {
    std::string line = "{\"bench\":\"";
    line += bench;
    line += "\",\"name\":\"";
    line += name;
    line += "\",\"value\":";
    char num[64];
    std::snprintf(num, sizeof(num), "%.6g", value);
    line += num;
    line += ",\"unit\":\"";
    line += unit;
    line += "\"";
    if (!params.empty()) {
      line += ",\"params\":{";
      for (size_t i = 0; i < params.size(); ++i) {
        if (i) line += ',';
        line += '"';
        line += params[i].key;
        line += "\":";
        std::snprintf(num, sizeof(num), "%.6g", params[i].value);
        line += num;
      }
      line += '}';
    }
    line += ",\"env\":" + EnvStamp() + "}";
    std::printf("%s\n", line.c_str());
  } else {
    std::printf("  %-28s %12.4g %s", name, value, unit);
    for (const BenchParam& p : params) {
      std::printf("  [%s=%g]", p.key, p.value);
    }
    std::printf("\n");
  }
}

/// Quantile `q` of `values` by linear interpolation between closest ranks
/// (numpy's default, as tools/bench_compare.py reads perfbench runs).
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = static_cast<double>(values.size() - 1) * q;
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// The overhead estimator of the observability benches. `run(mode,
/// passes)` returns the wall seconds of `passes` passes over the bench's
/// `queries` queries in `mode`; mode 0 is "off", the baseline, and
/// `names` names every mode. One unmeasured pass of off warms up and
/// sizes a run to at least 50 ms. Each of 60 short rounds then runs every
/// mode once, back to back, starting one mode later than the round
/// before, so no mode always runs first. A mode's overhead is the median
/// of its per-round ratio to off: a ratio taken within one round cancels
/// the host's slow speed changes, which a per-mode best-of-N reads from
/// different host states. Emits one line per mode: its median per-query
/// time, with the run size on off's line and the overhead median and
/// quartiles on every other.
inline void MeasureModes(
    const char* bench, const std::vector<const char*>& names, size_t queries,
    const std::function<double(size_t mode, int passes)>& run) {
  constexpr int kRounds = 60;
  const size_t modes = names.size();
  const int passes = std::max(
      1, static_cast<int>(std::ceil(0.05 / std::max(run(0, 1), 1e-6))));
  std::vector<std::vector<double>> seconds(modes), overheads(modes);
  std::vector<double> round_s(modes);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < modes; ++i) {
      const size_t mode = (static_cast<size_t>(round) + i) % modes;
      round_s[mode] = run(mode, passes);
    }
    for (size_t mode = 0; mode < modes; ++mode) {
      seconds[mode].push_back(round_s[mode]);
      overheads[mode].push_back(100.0 * (round_s[mode] / round_s[0] - 1));
    }
  }
  const double us_per_query =
      1e6 / static_cast<double>(queries * static_cast<size_t>(passes));
  EmitResult(bench, names[0], Quantile(seconds[0], 0.5) * us_per_query,
             "us/query",
             {{"queries", static_cast<double>(queries)},
              {"passes", static_cast<double>(passes)},
              {"rounds", static_cast<double>(kRounds)}});
  for (size_t mode = 1; mode < modes; ++mode) {
    EmitResult(bench, names[mode],
               Quantile(seconds[mode], 0.5) * us_per_query, "us/query",
               {{"overhead_pct", Quantile(overheads[mode], 0.5)},
                {"q1_pct", Quantile(overheads[mode], 0.25)},
                {"q3_pct", Quantile(overheads[mode], 0.75)}});
  }
}

/// The experiment domain: data coords in [0,3000], extents up to 100.
inline Rect Domain() { return Rect::Make2D(-10, 3110, -10, 3110); }

/// How a data box is turned into an index key.
enum class DataVariant {
  kConstraint,  ///< x, y constraint attributes: key = the box itself
  kRelational,  ///< x, y relational attributes: key = the center point
  kMixed,       ///< x constraint, y relational: x-range x center-y point
};

inline Rect KeyFor(const geom::Box& box, DataVariant variant) {
  const double x_lo = Rect::RoundDown(box.x_min);
  const double x_hi = Rect::RoundUp(box.x_max);
  const double y_lo = Rect::RoundDown(box.y_min);
  const double y_hi = Rect::RoundUp(box.y_max);
  switch (variant) {
    case DataVariant::kConstraint:
      return Rect::Make2D(x_lo, x_hi, y_lo, y_hi);
    case DataVariant::kRelational: {
      geom::Point c = box.Center();
      double cx = c.x.ToDouble();
      double cy = c.y.ToDouble();
      return Rect::Make2D(cx, cx, cy, cy);
    }
    case DataVariant::kMixed: {
      double cy = box.Center().y.ToDouble();
      return Rect::Make2D(x_lo, x_hi, cy, cy);
    }
  }
  return Rect::Make2D(0, 0, 0, 0);
}

/// Both strategies over the same data, each on its own counted disk.
class StrategyPair {
 public:
  StrategyPair(const std::vector<geom::Box>& boxes, DataVariant variant)
      : joint_pool_(&joint_disk_, 0),
        separate_pool_(&separate_disk_, 0),
        joint_(&joint_pool_, Domain()),
        separate_(&separate_pool_) {
    for (uint64_t i = 0; i < boxes.size(); ++i) {
      Rect key = KeyFor(boxes[i], variant);
      Status s1 = joint_.Insert(key, i);
      Status s2 = separate_.Insert(key, i);
      (void)s1;
      (void)s2;
    }
  }

  /// Runs one query against a strategy; returns {disk reads, result count}.
  struct Cost {
    uint64_t reads = 0;
    size_t hits = 0;
  };

  Cost MeasureJoint(const BoxQuery& query) {
    joint_disk_.ResetStats();
    auto hits = joint_.Search(query);
    return Cost{joint_disk_.stats().reads, hits.ok() ? hits->size() : 0};
  }

  Cost MeasureSeparate(const BoxQuery& query) {
    separate_disk_.ResetStats();
    auto hits = separate_.Search(query);
    return Cost{separate_disk_.stats().reads, hits.ok() ? hits->size() : 0};
  }

  JointIndex& joint() { return joint_; }
  SeparateIndex& separate() { return separate_; }

 private:
  PageManager joint_disk_;
  PageManager separate_disk_;
  BufferPool joint_pool_;
  BufferPool separate_pool_;
  JointIndex joint_;
  SeparateIndex separate_;
};

/// One measured point of a figure's series.
struct SeriesPoint {
  double x = 0;  ///< query area (fig. 4) or query length (fig. 5)
  uint64_t joint = 0;
  uint64_t separate = 0;
};

/// Prints the full scatter (the figure's data) followed by a bucketed
/// summary, mean ratio, and a least-squares slope of accesses vs. x for
/// each strategy (the paper's "depends on selectivity a lot less" claim).
inline void PrintSeries(const char* title, const char* x_label,
                        std::vector<SeriesPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const SeriesPoint& a, const SeriesPoint& b) {
              return a.x < b.x;
            });
  printf("\n%s\n", title);
  printf("  %-14s %14s %17s\n", x_label, "joint accesses",
         "separate accesses");
  for (const SeriesPoint& p : points) {
    printf("  %-14.0f %14llu %17llu\n", p.x,
           static_cast<unsigned long long>(p.joint),
           static_cast<unsigned long long>(p.separate));
  }

  const size_t buckets = 5;
  printf("  -- bucketed means (%zu buckets by %s) --\n", buckets, x_label);
  size_t per = (points.size() + buckets - 1) / buckets;
  for (size_t b = 0; b < buckets && b * per < points.size(); ++b) {
    size_t lo = b * per;
    size_t hi = std::min(points.size(), lo + per);
    double jx = 0, sx = 0, xx = 0;
    for (size_t i = lo; i < hi; ++i) {
      jx += static_cast<double>(points[i].joint);
      sx += static_cast<double>(points[i].separate);
      xx += points[i].x;
    }
    double n = static_cast<double>(hi - lo);
    printf("  %s ~%-10.0f joint %8.1f   separate %8.1f\n", x_label, xx / n,
           jx / n, sx / n);
  }

  double mean_j = 0, mean_s = 0, mean_x = 0;
  for (const SeriesPoint& p : points) {
    mean_j += static_cast<double>(p.joint);
    mean_s += static_cast<double>(p.separate);
    mean_x += p.x;
  }
  const double n = static_cast<double>(points.size());
  mean_j /= n;
  mean_s /= n;
  mean_x /= n;
  double num_j = 0, num_s = 0, den = 0;
  for (const SeriesPoint& p : points) {
    double dx = p.x - mean_x;
    num_j += dx * (static_cast<double>(p.joint) - mean_j);
    num_s += dx * (static_cast<double>(p.separate) - mean_s);
    den += dx * dx;
  }
  printf("  -- summary --\n");
  printf("  mean accesses:   joint %.1f, separate %.1f (ratio %.2fx)\n",
         mean_j, mean_s, mean_s / mean_j);
  printf("  slope vs %s: joint %.4f, separate %.4f\n", x_label,
         den > 0 ? num_j / den : 0.0, den > 0 ? num_s / den : 0.0);
}

}  // namespace ccdb::bench

#endif  // CCDB_BENCH_BENCH_COMMON_H_
