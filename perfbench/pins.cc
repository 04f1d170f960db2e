// The §5.4 paper pins, measured with the figure benches' own StrategyPair
// (bench/bench_common.h): each strategy's index sits on its own counted
// disk with no buffer cache, so a query's page reads are the R*-tree pages
// it touches. The data and query files are the ones the figure benches
// regenerate (seeds 1001, 2002, 3003), so the pins are constants of the
// code, identical on every run.

#include "bench_common.h"
#include "harness.h"

namespace perfbench {
namespace {

using ccdb::BoxQuery;
using ccdb::Rect;
using ccdb::bench::DataVariant;
using ccdb::bench::StrategyPair;

/// Page reads of both strategies, summed over queries.
struct Reads {
  uint64_t joint = 0;
  uint64_t separate = 0;
  uint64_t queries = 0;

  void Add(StrategyPair* pair, const BoxQuery& query) {
    joint += pair->MeasureJoint(query).reads;
    separate += pair->MeasureSeparate(query).reads;
    ++queries;
  }

  /// Sets `<prefix>_joint_reads` and `<prefix>_separate_reads` to the mean
  /// reads per query.
  void Report(const std::string& prefix, MetricSet* out) const {
    const double n = static_cast<double>(queries);
    out->Set(prefix + "_joint_reads", static_cast<double>(joint) / n, "count");
    out->Set(prefix + "_separate_reads", static_cast<double>(separate) / n,
             "count");
  }
};

BoxQuery BothAxes(const ccdb::geom::Box& q) {
  return BoxQuery::Both(Rect::RoundDown(q.x_min), Rect::RoundUp(q.x_max),
                        Rect::RoundDown(q.y_min), Rect::RoundUp(q.y_max));
}

}  // namespace

void AddPaperPins(MetricSet* out) {
  ccdb::WorkloadParams params;  // 10,000 data boxes, 100 queries
  const auto data = ccdb::GenerateDataBoxes(/*seed=*/1001, params);
  const auto queries = ccdb::GenerateQueryBoxes(/*seed=*/2002, params);
  ccdb::WorkloadParams exp3_params;
  exp3_params.query_count = 500;
  const auto exp3_queries =
      ccdb::GenerateQueryBoxes(/*seed=*/3003, exp3_params);

  StrategyPair constraint(data, DataVariant::kConstraint);
  Reads fig4;
  for (const auto& q : queries) fig4.Add(&constraint, BothAxes(q));
  fig4.Report("index.fig4", out);
  // Fig. 5: each query box gives an x-only and a y-only query.
  Reads fig5;
  for (const auto& q : queries) {
    fig5.Add(&constraint,
             BoxQuery::XOnly(Rect::RoundDown(q.x_min), Rect::RoundUp(q.x_max)));
    fig5.Add(&constraint,
             BoxQuery::YOnly(Rect::RoundDown(q.y_min), Rect::RoundUp(q.y_max)));
  }
  fig5.Report("index.fig5", out);

  StrategyPair mixed(data, DataVariant::kMixed);
  Reads exp3;
  for (const auto& q : exp3_queries) exp3.Add(&mixed, BothAxes(q));
  exp3.Report("index.exp3", out);
}

}  // namespace perfbench
