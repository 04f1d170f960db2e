#include "minkowski.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ccdb::geom {

namespace {

/// Rational approximation of a finite double with denominator 2^20
/// (plenty for vertex placement; exactness comes from the half-angle
/// construction, not from `t`'s precision).
Rational RationalNear(double v) {
  const int64_t scale = 1 << 20;
  return Rational(static_cast<int64_t>(std::llround(v * scale)), scale);
}

/// Rotates `ring` so it starts at the lexicographically smallest vertex
/// (min y, then min x) — the canonical start for the edge merge.
std::vector<Point> StartAtLowest(std::vector<Point> ring) {
  size_t best = 0;
  for (size_t i = 1; i < ring.size(); ++i) {
    if (ring[i].y < ring[best].y ||
        (ring[i].y == ring[best].y && ring[i].x < ring[best].x)) {
      best = i;
    }
  }
  std::rotate(ring.begin(), ring.begin() + static_cast<ptrdiff_t>(best),
              ring.end());
  return ring;
}

}  // namespace

std::vector<Point> ApproximateCirclePolygon(const Rational& radius,
                                            int segments,
                                            bool circumscribed) {
  assert(radius.Sign() > 0 && "radius must be positive");
  assert(segments >= 3);
  // Tangent-half-angle points: t = tan(θ/2) gives the EXACT circle point
  // r((1-t²)/(1+t²), 2t/(1+t²)) for any rational t. Spread θ over
  // (-π, π) avoiding ±π where t blows up.
  std::vector<Point> ring;
  ring.reserve(static_cast<size_t>(segments));
  std::vector<double> angles;
  for (int i = 0; i < segments; ++i) {
    double theta =
        -M_PI + 2.0 * M_PI * (static_cast<double>(i) + 0.5) / segments;
    angles.push_back(theta);
    Rational t = RationalNear(std::tan(theta / 2.0));
    Rational t2 = t * t;
    Rational denom = t2 + Rational(1);
    Rational x = radius * (Rational(1) - t2) / denom;
    Rational y = radius * (t + t) / denom;
    ring.emplace_back(std::move(x), std::move(y));
  }
  std::vector<Point> hull = ConvexHull(ring);
  if (circumscribed) {
    // Scale so the polygon contains the disk: a convex polygon with
    // vertices on the circle and maximum central gap g contains the disk
    // of radius r·cos(g/2); dividing by a safe upper bound of cos(g/2)
    // restores containment of the radius-r disk.
    double max_gap = 0.0;
    for (size_t i = 0; i < hull.size(); ++i) {
      const Point& p = hull[i];
      const Point& q = hull[(i + 1) % hull.size()];
      double ap = std::atan2(p.y.ToDouble(), p.x.ToDouble());
      double aq = std::atan2(q.y.ToDouble(), q.x.ToDouble());
      double gap = aq - ap;
      while (gap < 0) gap += 2.0 * M_PI;
      while (gap >= 2.0 * M_PI) gap -= 2.0 * M_PI;
      max_gap = std::max(max_gap, gap);
    }
    double factor = 1.0 / std::cos(std::min(max_gap, 3.1) / 2.0);
    Rational scale = RationalNear(factor * 1.0000001 + 1e-9);
    for (Point& p : hull) {
      p.x *= scale;
      p.y *= scale;
    }
  }
  return hull;
}

std::vector<Point> MinkowskiSum(const std::vector<Point>& a,
                                const std::vector<Point>& b) {
  assert(a.size() >= 3 && b.size() >= 3 && "convex rings required");
  std::vector<Point> p = StartAtLowest(a);
  std::vector<Point> q = StartAtLowest(b);
  const size_t n = p.size();
  const size_t m = q.size();
  std::vector<Point> sum;
  sum.reserve(n + m);
  size_t i = 0, j = 0;
  while (i < n || j < m) {
    sum.push_back(p[i % n] + q[j % m]);
    // Compare the polar angles of the next edges; advance the smaller
    // (both on ties) — the classic convex Minkowski merge.
    Point ea = p[(i + 1) % n] - p[i % n];
    Point eb = q[(j + 1) % m] - q[j % m];
    Rational cross = ea.x * eb.y - ea.y * eb.x;
    if (i >= n) {
      ++j;
    } else if (j >= m) {
      ++i;
    } else if (cross.Sign() > 0) {
      ++i;
    } else if (cross.Sign() < 0) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  // Clean duplicates/collinear vertices; the sum of convex sets is convex,
  // so the hull is exact.
  return ConvexHull(sum);
}

std::vector<Point> ApproximateBuffer(const std::vector<Point>& ring,
                                     const Rational& distance, int segments,
                                     bool outer) {
  if (distance.IsZero()) return ring;
  std::vector<Point> circle =
      ApproximateCirclePolygon(distance, segments, outer);
  return MinkowskiSum(ring, circle);
}

}  // namespace ccdb::geom
