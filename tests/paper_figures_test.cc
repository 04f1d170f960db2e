// The paper's §5.4 index figures, pinned exactly.
//
// `StrategyPair` (bench/bench_common.h) puts the joint 2-D R*-tree and the
// two separate 1-D R*-trees each on its own counted disk with no buffer
// cache, so a query's page reads are the tree pages it touches. The data
// and query boxes are the ones the figure benches regenerate (seeds 1001,
// 2002 and 3003), so every total below is a constant of the code: a change
// to the R*-tree's insertion, split or search moves it. The means per
// query are the figures perfbench reports as its index pins: fig4 4 /
// 10.97, fig5 18.225 / 5.485, exp3 3.762 / 8.832 (joint / separate).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_common.h"

namespace ccdb::bench {
namespace {

/// Page reads of both strategies, summed over queries.
struct Reads {
  uint64_t joint = 0;
  uint64_t separate = 0;
  uint64_t queries = 0;

  void Add(StrategyPair* pair, const BoxQuery& query) {
    const StrategyPair::Cost joint_cost = pair->MeasureJoint(query);
    const StrategyPair::Cost separate_cost = pair->MeasureSeparate(query);
    // Both strategies answer the same query with the same boxes.
    EXPECT_EQ(joint_cost.hits, separate_cost.hits);
    joint += joint_cost.reads;
    separate += separate_cost.reads;
    ++queries;
  }
};

BoxQuery BothAxes(const geom::Box& q) {
  return BoxQuery::Both(Rect::RoundDown(q.x_min), Rect::RoundUp(q.x_max),
                        Rect::RoundDown(q.y_min), Rect::RoundUp(q.y_max));
}

/// The figure benches' data and queries: the paper's 10,000 boxes and
/// 100 query boxes.
std::vector<geom::Box> Data() {
  return GenerateDataBoxes(/*seed=*/1001, WorkloadParams{});
}
std::vector<geom::Box> Queries() {
  return GenerateQueryBoxes(/*seed=*/2002, WorkloadParams{});
}

TEST(PaperFiguresTest, Fig4BothAttributeQueries) {
  StrategyPair pair(Data(), DataVariant::kConstraint);
  Reads reads;
  for (const geom::Box& q : Queries()) reads.Add(&pair, BothAxes(q));
  EXPECT_EQ(reads.queries, 100u);
  EXPECT_EQ(reads.joint, 400u);
  EXPECT_EQ(reads.separate, 1097u);
}

TEST(PaperFiguresTest, Fig5OneAttributeQueries) {
  StrategyPair pair(Data(), DataVariant::kConstraint);
  Reads reads;
  // Each query box gives an x-only and a y-only query.
  for (const geom::Box& q : Queries()) {
    reads.Add(&pair, BoxQuery::XOnly(Rect::RoundDown(q.x_min),
                                     Rect::RoundUp(q.x_max)));
    reads.Add(&pair, BoxQuery::YOnly(Rect::RoundDown(q.y_min),
                                     Rect::RoundUp(q.y_max)));
  }
  EXPECT_EQ(reads.queries, 200u);
  EXPECT_EQ(reads.joint, 3645u);
  EXPECT_EQ(reads.separate, 1097u);
}

TEST(PaperFiguresTest, Exp3HeterogeneousRelation) {
  StrategyPair pair(Data(), DataVariant::kMixed);
  WorkloadParams params;
  params.query_count = 500;
  Reads reads;
  for (const geom::Box& q : GenerateQueryBoxes(/*seed=*/3003, params)) {
    reads.Add(&pair, BothAxes(q));
  }
  EXPECT_EQ(reads.queries, 500u);
  EXPECT_EQ(reads.joint, 1881u);
  EXPECT_EQ(reads.separate, 4416u);
}

}  // namespace
}  // namespace ccdb::bench
