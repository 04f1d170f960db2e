#include "minkowski.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ccdb::geom {
namespace {

Rational SquaredNorm(const Point& p) { return p.x * p.x + p.y * p.y; }

// --- Circle approximation ---------------------------------------------------------

class CirclePolygonProperty : public ::testing::TestWithParam<int> {};

TEST_P(CirclePolygonProperty, InscribedVerticesLieExactlyOnCircle) {
  const int k = GetParam();
  Rational r(7);
  auto ring = ApproximateCirclePolygon(r, k, /*circumscribed=*/false);
  ASSERT_GE(ring.size(), 3u);
  for (const Point& p : ring) {
    EXPECT_EQ(SquaredNorm(p), r * r)
        << "tangent-half-angle points must be EXACTLY on the circle: "
        << p.ToString();
  }
  // CCW convex.
  auto polygon = Polygon::Make(ring);
  ASSERT_TRUE(polygon.ok());
  EXPECT_TRUE(polygon->IsConvex());
}

TEST_P(CirclePolygonProperty, CircumscribedContainsTheDisk) {
  const int k = GetParam();
  Rational r(5);
  auto outer = ApproximateCirclePolygon(r, k, /*circumscribed=*/true);
  auto poly = Polygon::Make(outer);
  ASSERT_TRUE(poly.ok());
  // Sample points on (and just inside) the circle via the same exact
  // parametrization; all must be inside the circumscribed polygon.
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    Rational t(rng.UniformInt(-10000, 10000), 1 + rng.UniformInt(0, 9999));
    Rational t2 = t * t;
    Rational denom = t2 + Rational(1);
    Point on_circle(r * (Rational(1) - t2) / denom, r * (t + t) / denom);
    EXPECT_TRUE(poly->Contains(on_circle))
        << "k=" << k << " point " << on_circle.ToString();
  }
}

TEST_P(CirclePolygonProperty, InscribedAreaApproachesDiskArea) {
  const int k = GetParam();
  Rational r(10);
  auto ring = ApproximateCirclePolygon(r, k, false);
  auto poly = Polygon::Make(ring);
  ASSERT_TRUE(poly.ok());
  double area = poly->Area().ToDouble();
  double disk = 3.14159265358979 * 100.0;
  EXPECT_LT(area, disk) << "inscribed is a subset";
  // Known bound: inscribed regular k-gon area = (k/2) r^2 sin(2π/k).
  double lower = 0.5 * k * 100.0 * std::sin(2.0 * M_PI / k) * 0.98;
  EXPECT_GT(area, lower) << "should be near the regular k-gon area";
}

INSTANTIATE_TEST_SUITE_P(SegmentCounts, CirclePolygonProperty,
                         ::testing::Values(4, 8, 16, 32, 64),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

// --- Minkowski sum ----------------------------------------------------------------

TEST(MinkowskiTest, SquarePlusSquare) {
  auto a = Polygon::Rectangle(Box::FromCorners(Point(0, 0), Point(2, 2)));
  auto b = Polygon::Rectangle(Box::FromCorners(Point(-1, -1), Point(1, 1)));
  auto sum = MinkowskiSum(a.vertices(), b.vertices());
  auto poly = Polygon::Make(sum);
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->BoundingBox(),
            Box::FromCorners(Point(-1, -1), Point(3, 3)));
  EXPECT_EQ(poly->Area(), Rational(16));  // (2+2)^2
  EXPECT_EQ(poly->size(), 4u);
}

TEST(MinkowskiTest, SquarePlusTriangle) {
  auto square = Polygon::Rectangle(Box::FromCorners(Point(0, 0), Point(2, 2)));
  auto tri = Polygon::Make({Point(0, 0), Point(1, 0), Point(0, 1)}).value();
  auto sum = MinkowskiSum(square.vertices(), tri.vertices());
  auto poly = Polygon::Make(sum);
  ASSERT_TRUE(poly.ok());
  EXPECT_TRUE(poly->IsConvex());
  // Area of A⊕B for convex A,B: |A| + |B| + mixed area; here 4 + 1/2 +
  // perimeter-interaction = 4 + 0.5 + (2+2)*1/2*... verify by sampling
  // instead: every a+b with a in A, b in B is inside.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Point a(Rational(rng.UniformInt(0, 8), 4), Rational(rng.UniformInt(0, 8), 4));
    if (!square.Contains(a)) continue;
    Point b(Rational(rng.UniformInt(0, 4), 4), Rational(rng.UniformInt(0, 4), 4));
    if (!tri.Contains(b)) continue;
    EXPECT_TRUE(poly->Contains(a + b))
        << a.ToString() << " + " << b.ToString();
  }
}

TEST(MinkowskiTest, SumCommutes) {
  auto a = Polygon::Make({Point(0, 0), Point(3, 1), Point(1, 3)}).value();
  auto b = Polygon::Make({Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)})
               .value();
  auto ab = MinkowskiSum(a.vertices(), b.vertices());
  auto ba = MinkowskiSum(b.vertices(), a.vertices());
  EXPECT_EQ(ConvexHull(ab), ConvexHull(ba));
}

// --- Buffer approximation (the paper's arbitrary-accuracy claim) -------------------

TEST(BufferTest, SandwichContainment) {
  auto base = Polygon::Rectangle(Box::FromCorners(Point(0, 0), Point(10, 6)));
  Rational d(2);
  auto inner = ApproximateBuffer(base.vertices(), d, 16, /*outer=*/false);
  auto outer = ApproximateBuffer(base.vertices(), d, 16, /*outer=*/true);
  auto inner_poly = Polygon::Make(inner);
  auto outer_poly = Polygon::Make(outer);
  ASSERT_TRUE(inner_poly.ok() && outer_poly.ok());

  // Points at exact distance <= d from the rectangle must lie inside the
  // OUTER approximation; points of the INNER approximation must be within
  // distance d (closure) of the rectangle.
  Rng rng(3);
  int checked_outer = 0;
  for (int i = 0; i < 500 && checked_outer < 120; ++i) {
    Point p(Rational(rng.UniformInt(-3, 13)), Rational(rng.UniformInt(-3, 9)));
    Rational dist2 = SquaredDistance(p, base);
    if (dist2 <= d * d) {
      EXPECT_TRUE(outer_poly->Contains(p)) << p.ToString();
      ++checked_outer;
    }
  }
  for (const Point& v : inner) {
    EXPECT_LE(SquaredDistance(v, base), d * d)
        << "inner approximation vertex beyond the true buffer: "
        << v.ToString();
  }
  // Inner ⊆ outer.
  for (const Point& v : inner) {
    EXPECT_TRUE(outer_poly->Contains(v));
  }
}

TEST(BufferTest, AccuracyImprovesWithSegments) {
  // §1.1: "approximate any spatial extent to an arbitrary accuracy (by
  // making line segments shorter)". The inner/outer area gap must shrink
  // as the circle approximation refines.
  auto base = Polygon::Rectangle(Box::FromCorners(Point(0, 0), Point(8, 8)));
  Rational d(3);
  double previous_gap = 1e18;
  for (int k : {4, 8, 16, 32}) {
    auto inner = Polygon::Make(ApproximateBuffer(base.vertices(), d, k, false));
    auto outer = Polygon::Make(ApproximateBuffer(base.vertices(), d, k, true));
    ASSERT_TRUE(inner.ok() && outer.ok());
    double gap = outer->Area().ToDouble() - inner->Area().ToDouble();
    EXPECT_GT(gap, 0.0);
    EXPECT_LT(gap, previous_gap) << "k=" << k;
    previous_gap = gap;
  }
  EXPECT_LT(previous_gap, 1.0) << "k=32 gap should be under one unit^2";
}

TEST(BufferTest, ZeroDistanceIsIdentity) {
  auto base = Polygon::Rectangle(Box::FromCorners(Point(0, 0), Point(4, 4)));
  auto same = ApproximateBuffer(base.vertices(), Rational(0), 8, true);
  EXPECT_EQ(same, base.vertices());
}

}  // namespace
}  // namespace ccdb::geom
