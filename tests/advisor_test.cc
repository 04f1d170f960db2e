#include "core/advisor.h"

#include <gtest/gtest.h>

#include "data/workload.h"
#include "lang/data_parser.h"

namespace ccdb::cqa {
namespace {

Rect Domain() { return Rect::Make2D(-10, 3110, -10, 3110); }

std::vector<BoxQuery> ConjunctiveWorkload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BoxQuery> out;
  for (size_t i = 0; i < n; ++i) {
    double x = static_cast<double>(rng.UniformInt(0, 3000));
    double y = static_cast<double>(rng.UniformInt(0, 3000));
    out.push_back(BoxQuery::Both(x, x + 80, y, y + 80));
  }
  return out;
}

std::vector<BoxQuery> SingleAttrWorkload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BoxQuery> out;
  for (size_t i = 0; i < n; ++i) {
    double lo = static_cast<double>(rng.UniformInt(0, 3000));
    out.push_back(i % 2 ? BoxQuery::XOnly(lo, lo + 60)
                        : BoxQuery::YOnly(lo, lo + 60));
  }
  return out;
}

TEST(AdvisorTest, RecommendsJointForConjunctiveWorkload) {
  Relation rel = BoxesToConstraintRelation(GenerateRectangles(3000, 5));
  auto report =
      AdviseIndexing(rel, ConjunctiveWorkload(20, 6), "x", "y", Domain());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->recommendation, IndexChoice::kJoint)
      << report->ToString();
  EXPECT_EQ(report->queries_both, 20u);
  EXPECT_EQ(report->candidates.size(), 4u);
  // Costs sorted ascending.
  for (size_t i = 1; i < report->candidates.size(); ++i) {
    EXPECT_LE(report->candidates[i - 1].total_accesses,
              report->candidates[i].total_accesses);
  }
}

TEST(AdvisorTest, RecommendsSeparateOrSingleForSingleAttrWorkload) {
  Relation rel = BoxesToConstraintRelation(GenerateRectangles(3000, 5));
  auto report =
      AdviseIndexing(rel, SingleAttrWorkload(20, 7), "x", "y", Domain());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->recommendation, IndexChoice::kJoint)
      << report->ToString();
  EXPECT_EQ(report->queries_x_only + report->queries_y_only, 20u);
}

TEST(AdvisorTest, SingleAxisWinsWhenOnlyThatAxisIsQueried) {
  // An index wins only where it fetches fewer candidates than the heap
  // has pages: rectangles at most 10 wide under 10-wide x windows give
  // each query about 17 candidates, against a 26-page heap scan.
  WorkloadParams small;
  small.extent_max = 10;
  Relation rel = BoxesToConstraintRelation(GenerateRectangles(3000, 5, small));
  Rng rng(8);
  std::vector<BoxQuery> xonly;
  for (int i = 0; i < 20; ++i) {
    double lo = static_cast<double>(rng.UniformInt(0, 3000));
    xonly.push_back(BoxQuery::XOnly(lo, lo + 10));
  }
  auto report = AdviseIndexing(rel, xonly, "x", "y", Domain());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->recommendation, IndexChoice::kXOnly)
      << report->ToString();
}

TEST(AdvisorTest, ReportsIndependenceSignal) {
  // Box data: independent attributes.
  Relation boxes = BoxesToConstraintRelation(GenerateRectangles(50, 5));
  auto r1 = AdviseIndexing(boxes, ConjunctiveWorkload(5, 1), "x", "y",
                           Domain());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->attributes_independent);

  // Diagonal (coupled) data.
  Relation diag(boxes.schema());
  LinearExpr x = LinearExpr::Variable("x");
  LinearExpr y = LinearExpr::Variable("y");
  for (int i = 0; i < 10; ++i) {
    Tuple t;
    t.AddConstraint(Constraint::Eq(y, x));
    t.AddConstraint(Constraint::Ge(x, LinearExpr::Constant(Rational(i))));
    t.AddConstraint(
        Constraint::Le(x, LinearExpr::Constant(Rational(i + 1))));
    ASSERT_TRUE(diag.Insert(std::move(t)).ok());
  }
  auto r2 = AdviseIndexing(diag, ConjunctiveWorkload(5, 1), "x", "y",
                           Domain());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->attributes_independent);
}

TEST(AdvisorTest, ValidatesInput) {
  Relation rel = BoxesToConstraintRelation(GenerateRectangles(10, 5));
  EXPECT_FALSE(AdviseIndexing(rel, {}, "x", "y", Domain()).ok());
  EXPECT_FALSE(
      AdviseIndexing(rel, ConjunctiveWorkload(1, 1), "x", "nope", Domain())
          .ok());
  std::vector<BoxQuery> empty_query{BoxQuery{}};
  EXPECT_FALSE(AdviseIndexing(rel, empty_query, "x", "y", Domain()).ok());
}

TEST(AdvisorTest, ReportRendersAllSections) {
  Relation rel = BoxesToConstraintRelation(GenerateRectangles(100, 5));
  auto report =
      AdviseIndexing(rel, ConjunctiveWorkload(3, 2), "x", "y", Domain());
  ASSERT_TRUE(report.ok());
  std::string text = report->ToString();
  EXPECT_NE(text.find("recommendation:"), std::string::npos);
  EXPECT_NE(text.find("workload:"), std::string::npos);
  EXPECT_NE(text.find("joint(x,y)"), std::string::npos);
  EXPECT_NE(text.find("costs"), std::string::npos);
}

// --- Database export round-trip (exercised here to keep suites balanced) ---

TEST(DataExportTest, DatabaseRoundTripsThroughText) {
  Database db;
  Status load = lang::LoadDatabaseFile(
      std::string(CCDB_DATA_DIR) + "/hurricane/hurricane.cdb", &db);
  ASSERT_TRUE(load.ok()) << load.ToString();

  std::string text = lang::FormatDatabaseText(db);
  Database reloaded;
  Status reload = lang::LoadDatabaseText(text, &reloaded);
  ASSERT_TRUE(reload.ok()) << reload.ToString() << "\n--- exported ---\n"
                           << text;
  ASSERT_EQ(reloaded.Names(), db.Names());
  for (const std::string& name : db.Names()) {
    const Relation* a = db.Get(name).value();
    const Relation* b = reloaded.Get(name).value();
    EXPECT_EQ(a->schema(), b->schema()) << name;
    ASSERT_EQ(a->size(), b->size()) << name;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(a->tuples()[i], b->tuples()[i]) << name << " tuple " << i;
    }
  }
}

TEST(DataExportTest, SaveAndLoadFile) {
  Database db;
  Relation rel(Schema::Make({Schema::RelationalString("tag"),
                             Schema::ConstraintRational("v")})
                   .value());
  Tuple t;
  t.SetValue("tag", Value::String("answer"));
  t.AddConstraint(Constraint::Eq(LinearExpr::Variable("v"),
                                 LinearExpr::Constant(Rational(42))));
  ASSERT_TRUE(rel.Insert(std::move(t)).ok());
  ASSERT_TRUE(db.Create("R", std::move(rel)).ok());

  std::string path = ::testing::TempDir() + "/ccdb_export_test.cdb";
  ASSERT_TRUE(lang::SaveDatabaseFile(path, db).ok());
  Database back;
  ASSERT_TRUE(lang::LoadDatabaseFile(path, &back).ok());
  EXPECT_EQ(back.Get("R").value()->size(), 1u);
}

}  // namespace
}  // namespace ccdb::cqa
