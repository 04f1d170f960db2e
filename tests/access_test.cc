#include "core/access.h"

#include <cstring>

#include <gtest/gtest.h>

#include "data/workload.h"
#include "util/random.h"

namespace ccdb::cqa {
namespace {

LinearExpr V(const std::string& n) { return LinearExpr::Variable(n); }

/// Canonical multiset signature of a relation for equality checks.
std::multiset<std::string> Signature(const Relation& rel) {
  std::multiset<std::string> out;
  for (const Tuple& t : rel.tuples()) out.insert(t.ToString());
  return out;
}

class AccessTest : public ::testing::Test {
 protected:
  PageManager disk_;
};

TEST_F(AccessTest, CreateValidatesAttributes) {
  BufferPool pool(&disk_, 0);
  Relation rel(Schema::Make({Schema::RelationalString("name")}).value());
  EXPECT_FALSE(StoredRelation::Create(&pool, rel, AccessIndexKind::kNone,
                                      "x", "y")
                   .ok());
}

TEST_F(AccessTest, AllAccessPathsAgreeOnConstraintData) {
  BufferPool pool(&disk_, 0);
  auto boxes = GenerateRectangles(400, 11);
  Relation rel = BoxesToConstraintRelation(boxes);
  Rect domain = Rect::Make2D(-100, 3300, -100, 3300);

  auto none = StoredRelation::Create(&pool, rel, AccessIndexKind::kNone,
                                     "x", "y", domain);
  auto joint = StoredRelation::Create(&pool, rel, AccessIndexKind::kJoint,
                                      "x", "y", domain);
  auto separate = StoredRelation::Create(
      &pool, rel, AccessIndexKind::kSeparate, "x", "y", domain);
  ASSERT_TRUE(none.ok() && joint.ok() && separate.ok());

  Rng rng(77);
  for (int q = 0; q < 25; ++q) {
    double lo_x = static_cast<double>(rng.UniformInt(0, 3000));
    double lo_y = static_cast<double>(rng.UniformInt(0, 3000));
    BoxQuery query = BoxQuery::Both(lo_x, lo_x + 80, lo_y, lo_y + 80);
    auto a = (*none)->BoxSelect(query);
    auto b = (*joint)->BoxSelect(query);
    auto c = (*separate)->BoxSelect(query);
    auto d = (*joint)->ScanSelect(query);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
    EXPECT_EQ(Signature(*a), Signature(*b));
    EXPECT_EQ(Signature(*a), Signature(*c));
    EXPECT_EQ(Signature(*a), Signature(*d));
  }
}

TEST_F(AccessTest, BoxSelectRefinesAgainstTheExactWindow) {
  // x reaches 0.1234568, just past a window starting at 0.1234567 (which
  // six-decimal printing would round up to 0.123457, past the tuple).
  BufferPool pool(&disk_, 0);
  const geom::Box box{Rational(0), Rational(1234568, 10000000), Rational(0),
                      Rational(1)};
  const Relation rel = BoxesToConstraintRelation({box});
  const BoxQuery query = BoxQuery::Both(0.1234567, 1, 0, 1);
  Predicate pred;
  pred.linear.push_back(Constraint::Ge(
      V("x"), LinearExpr::Constant(Rational(1234567, 10000000))));
  auto selected = Select(rel, pred);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 1u);
  for (AccessIndexKind kind : {AccessIndexKind::kNone, AccessIndexKind::kJoint,
                               AccessIndexKind::kSeparate}) {
    auto stored = StoredRelation::Create(&pool, rel, kind, "x", "y",
                                         Rect::Make2D(-10, 10, -10, 10));
    ASSERT_TRUE(stored.ok());
    auto out = (*stored)->BoxSelect(query);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), 1u) << "index kind " << static_cast<int>(kind);
  }
}

TEST_F(AccessTest, SingleAttributeQueries) {
  BufferPool pool(&disk_, 0);
  auto boxes = GenerateRectangles(300, 12);
  Relation rel = BoxesToConstraintRelation(boxes);
  Rect domain = Rect::Make2D(-100, 3300, -100, 3300);
  auto joint = StoredRelation::Create(&pool, rel, AccessIndexKind::kJoint,
                                      "x", "y", domain);
  auto separate = StoredRelation::Create(
      &pool, rel, AccessIndexKind::kSeparate, "x", "y", domain);
  ASSERT_TRUE(joint.ok() && separate.ok());
  Rng rng(13);
  for (int q = 0; q < 20; ++q) {
    double lo = static_cast<double>(rng.UniformInt(0, 3000));
    BoxQuery query = rng.UniformInt(0, 1) ? BoxQuery::XOnly(lo, lo + 60)
                                          : BoxQuery::YOnly(lo, lo + 60);
    auto a = (*joint)->BoxSelect(query);
    auto b = (*separate)->BoxSelect(query);
    auto c = (*joint)->ScanSelect(query);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(Signature(*a), Signature(*b));
    EXPECT_EQ(Signature(*a), Signature(*c));
  }
}

TEST_F(AccessTest, RelationalDataWithNullsUsesOutlierPath) {
  BufferPool pool(&disk_, 0);
  Schema schema = Schema::Make({Schema::RelationalRational("x"),
                                Schema::RelationalRational("y")})
                      .value();
  Relation rel(schema);
  Tuple a;
  a.SetValue("x", Value::Number(10));
  a.SetValue("y", Value::Number(10));
  Tuple with_null;  // y missing: excluded from the index
  with_null.SetValue("x", Value::Number(10));
  ASSERT_TRUE(rel.Insert(a).ok());
  ASSERT_TRUE(rel.Insert(with_null).ok());

  auto stored = StoredRelation::Create(&pool, rel, AccessIndexKind::kJoint,
                                       "x", "y",
                                       Rect::Make2D(0, 100, 0, 100));
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  // The null-y tuple is not in the index; it must reach results through
  // the outlier list, never silently dropped. An x-only query does not
  // mention y, so narrow semantics admit it: both tuples match.
  auto out = (*stored)->BoxSelect(BoxQuery::XOnly(5, 15));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  // A y-range predicate mentions y: the null-y tuple fails (narrow).
  auto out_y = (*stored)->BoxSelect(BoxQuery::YOnly(5, 15));
  ASSERT_TRUE(out_y.ok());
  EXPECT_EQ(out_y->size(), 1u);
}

TEST_F(AccessTest, MaterializeRoundTrips) {
  BufferPool pool(&disk_, 0);
  auto boxes = GenerateRectangles(50, 3);
  Relation rel = BoxesToConstraintRelation(boxes);
  auto stored = StoredRelation::Create(&pool, rel, AccessIndexKind::kNone);
  ASSERT_TRUE(stored.ok());
  auto back = (*stored)->Materialize();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Signature(*back), Signature(rel));
}

TEST_F(AccessTest, MaterializeFailsOnCorruptRecordInsteadOfTruncating) {
  BufferPool pool(&disk_, 0);
  auto boxes = GenerateRectangles(20, 5);
  Relation rel = BoxesToConstraintRelation(boxes);
  auto stored = StoredRelation::Create(&pool, rel, AccessIndexKind::kNone);
  ASSERT_TRUE(stored.ok());
  // Scribble over the record payload of the heap's first page (page 0 of
  // this fresh disk) while leaving the page header and the slot directory
  // at the page tail intact: the scan still walks every slot, but the
  // record bytes no longer decode.
  Page page;
  ASSERT_TRUE(disk_.Read(0, &page).ok());
  std::memset(page.bytes() + 12, 0xFF, 16);
  ASSERT_TRUE(disk_.Write(0, page).ok());
  // A record that cannot be decoded must fail the materialization; an
  // earlier version silently skipped it and returned a truncated relation
  // as if it were the full answer.
  auto back = (*stored)->Materialize();
  EXPECT_FALSE(back.ok());
}

TEST_F(AccessTest, IndexedSelectTouchesFewerPagesThanScan) {
  BufferPool pool(&disk_, 0);
  auto boxes = GenerateRectangles(5000, 21);
  Relation rel = BoxesToConstraintRelation(boxes);
  Rect domain = Rect::Make2D(-100, 3300, -100, 3300);
  auto joint = StoredRelation::Create(&pool, rel, AccessIndexKind::kJoint,
                                      "x", "y", domain);
  ASSERT_TRUE(joint.ok());
  BoxQuery query = BoxQuery::Both(1000, 1080, 1000, 1080);

  disk_.ResetStats();
  ASSERT_TRUE((*joint)->BoxSelect(query).ok());
  uint64_t indexed_reads = disk_.stats().reads;

  disk_.ResetStats();
  ASSERT_TRUE((*joint)->ScanSelect(query).ok());
  uint64_t scan_reads = disk_.stats().reads;

  EXPECT_LT(indexed_reads, scan_reads / 5)
      << "indexed: " << indexed_reads << ", scan: " << scan_reads;
}

}  // namespace
}  // namespace ccdb::cqa
