#ifndef CCDB_TESTS_MINKOWSKI_H_
#define CCDB_TESTS_MINKOWSKI_H_

/// \file minkowski.h
/// Minkowski sums and polygonal buffer approximation.
///
/// The paper leans on a key property of the linear constraint model
/// (§1.1, §3.3): "a data model based on linear constraints can approximate
/// any spatial extent to an arbitrary accuracy (by making line segments
/// shorter)". The canonical curved extent in this system is the *buffer*
/// of a feature — the set of points within distance d — whose boundary
/// contains circular arcs. CCDB realizes the claim constructively:
///
///  - `ApproximateCirclePolygon` builds a convex polygon with *exactly
///    rational* vertices on (inscribed) or outside (circumscribed) the
///    circle of radius r, using the tangent-half-angle parametrization
///    t ↦ r·((1−t²)/(1+t²), 2t/(1+t²)) — no floating point anywhere;
///  - `MinkowskiSum` of two convex polygons (exact, by the classic edge
///    merge) turns a circle approximation into a buffer approximation:
///    buffer(P, d) is sandwiched between P ⊕ inscribed_k(d) and
///    P ⊕ circumscribed_k(d), and the gap vanishes as k grows.
///
/// The sandwich is testable exactly: `BufferTest.SandwichContainment`
/// (minkowski_test.cc) checks it, and
/// `BufferTest.AccuracyImprovesWithSegments` checks the gap shrinking.
/// No binary builds a buffer, so this demonstration is built into
/// minkowski_test only, not into the library.

#include <vector>

#include "geom/decompose.h"
#include "geom/polygon.h"

namespace ccdb::geom {

/// A convex polygon with rational vertices approximating the circle of
/// radius `radius` centered at the origin, with `segments` >= 3 vertices.
///  - inscribed (`circumscribed == false`): vertices lie exactly ON the
///    circle (tangent-half-angle rational points), polygon ⊆ disk;
///  - circumscribed (`circumscribed == true`): the polygon contains the
///    disk (the inscribed polygon of a slightly larger rational radius
///    chosen so containment is guaranteed: r' = r / cos(π/k) rounded up).
/// Requires radius > 0.
std::vector<Point> ApproximateCirclePolygon(const Rational& radius,
                                            int segments,
                                            bool circumscribed);

/// Exact Minkowski sum of two convex CCW rings (the classic linear-time
/// edge merge). The result is convex and CCW, with collinear vertices
/// removed.
std::vector<Point> MinkowskiSum(const std::vector<Point>& a,
                                const std::vector<Point>& b);

/// Polygonal approximation of buffer(`ring`, d) for a convex CCW ring:
/// the Minkowski sum with a circle approximation of radius d.
/// Under-approximates with inscribed circles, over-approximates with
/// circumscribed ones; both converge to the true buffer as `segments`
/// grows.
std::vector<Point> ApproximateBuffer(const std::vector<Point>& ring,
                                     const Rational& distance, int segments,
                                     bool outer);

}  // namespace ccdb::geom

#endif  // CCDB_TESTS_MINKOWSKI_H_
