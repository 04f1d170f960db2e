#ifndef CCDB_CORE_SPATIAL_H_
#define CCDB_CORE_SPATIAL_H_

/// \file spatial.h
/// Whole-feature spatial operators: Buffer-Join and k-Nearest (§4).
///
/// A raw `distance(p, q)` operator is *unsafe* in a linear constraint
/// database: the set of points at distance d from a feature has a circular
/// boundary, which no finite set of linear constraints represents, so the
/// closure requirement of §2.4 fails. The paper's fix is *whole-feature*
/// operators that never materialize distance as data: they return a
/// relation of feature-ID pairs, which is trivially representable —
/// queries stay safe by construction.
///
/// A *spatial constraint relation* groups constraint tuples by a feature-ID
/// attribute: one feature = one ID = the union of its tuples' regions
/// (segments of a trajectory, convex pieces of a region, ...).
///
/// Both operators come in a nested-loop and an R*-tree-accelerated form;
/// the index filters candidate pairs by bounding box, exact rational
/// geometry refines (filter-refine, [3] in the paper).

#include <string>
#include <vector>

#include "data/relation.h"
#include "geom/convert.h"

namespace ccdb::cqa {

/// One spatial feature: an ID plus the convex regions of its tuples.
struct Feature {
  std::string id;
  std::vector<geom::ConvexRegion> parts;
  geom::Box bounds = geom::Box::Empty();  ///< bounding box of all parts
};

/// A spatial constraint relation materialized as features.
class FeatureSet {
 public:
  /// Groups `input`'s tuples by `id_attr` (a relational string attribute)
  /// and converts each tuple's constraint store over (xvar, yvar) into a
  /// convex region. Fails when the schema does not match the spatial
  /// constraint relation shape or a tuple's region is unbounded.
  static Result<FeatureSet> FromRelation(const Relation& input,
                                         const std::string& id_attr = "fid",
                                         const std::string& xvar = "x",
                                         const std::string& yvar = "y");

  /// Checks that `schema` has the shape FromRelation needs: a relational
  /// string `id_attr` and constraint attributes `xvar` and `yvar`.
  static Status CheckSchema(const Schema& schema,
                            const std::string& id_attr = "fid",
                            const std::string& xvar = "x",
                            const std::string& yvar = "y");

  const std::vector<Feature>& features() const { return features_; }
  size_t size() const { return features_.size(); }

  /// Exact squared distance between two features: the minimum over their
  /// part pairs (0 when they touch or overlap).
  static Rational SquaredDistance(const Feature& a, const Feature& b);

 private:
  std::vector<Feature> features_;
};

/// Evaluation knobs for the whole-feature operators.
struct SpatialOptions {
  /// Use an R*-tree over feature bounding boxes; false = nested loop.
  bool use_index = true;
  /// Drop pairs with equal feature IDs (self-join hygiene).
  bool exclude_same_id = false;
  /// Output attribute names.
  std::string out_left = "fid1";
  std::string out_right = "fid2";
};

/// The (out_left, out_right) schema of BufferJoin's and KNearest's pairs.
Schema PairSchema(const SpatialOptions& options = {});

/// Buffer-Join(R, S, d): the relation of pairs (fid1, fid2) with
/// distance(feature fid1 of R, feature fid2 of S) <= d. `distance` must be
/// non-negative. Output is a traditional relation — safe by construction.
Result<Relation> BufferJoin(const FeatureSet& lhs, const FeatureSet& rhs,
                            const Rational& distance,
                            const SpatialOptions& options = {});

/// k-Nearest(R, S, k): for every feature of R, its k nearest features of S
/// (ties broken by feature ID; fewer than k when S is small). Returns
/// pairs (fid1, fid2).
Result<Relation> KNearest(const FeatureSet& lhs, const FeatureSet& rhs,
                          size_t k, const SpatialOptions& options = {});

}  // namespace ccdb::cqa

#endif  // CCDB_CORE_SPATIAL_H_
