#include "core/spatial.h"

#include <algorithm>
#include <map>
#include <memory>

#include "index/strategy.h"
#include "obs/governance.h"

namespace ccdb::cqa {

Status FeatureSet::CheckSchema(const Schema& schema,
                               const std::string& id_attr,
                               const std::string& xvar,
                               const std::string& yvar) {
  const Attribute* id = schema.Find(id_attr);
  if (id == nullptr || id->kind != AttributeKind::kRelational ||
      id->domain != AttributeDomain::kString) {
    return Status::InvalidArgument(
        "spatial constraint relation needs relational string attribute '" +
        id_attr + "'");
  }
  for (const std::string& var : {xvar, yvar}) {
    const Attribute* attr = schema.Find(var);
    if (attr == nullptr || attr->kind != AttributeKind::kConstraint) {
      return Status::InvalidArgument(
          "spatial constraint relation needs constraint attribute '" + var +
          "'");
    }
  }
  return Status::OK();
}

Result<FeatureSet> FeatureSet::FromRelation(const Relation& input,
                                            const std::string& id_attr,
                                            const std::string& xvar,
                                            const std::string& yvar) {
  CCDB_RETURN_IF_ERROR(CheckSchema(input.schema(), id_attr, xvar, yvar));

  std::map<std::string, Feature> by_id;
  for (const Tuple& tuple : input.tuples()) {
    const Value& value = tuple.GetValue(id_attr);
    if (value.IsNull()) {
      return Status::InvalidArgument(
          "spatial tuple with null feature ID: " + tuple.ToString());
    }
    CCDB_ASSIGN_OR_RETURN(
        geom::ConvexRegion region,
        geom::ConjunctionToRegion(tuple.constraints(), xvar, yvar));
    Feature& feature = by_id[value.AsString()];
    feature.id = value.AsString();
    feature.bounds = feature.bounds.ExpandedBy(region.BoundingBox());
    feature.parts.push_back(std::move(region));
  }
  FeatureSet set;
  set.features_.reserve(by_id.size());
  for (auto& [key, feature] : by_id) {
    set.features_.push_back(std::move(feature));
  }
  return set;
}

Rational FeatureSet::SquaredDistance(const Feature& a, const Feature& b) {
  Rational best(-1);
  for (const geom::ConvexRegion& pa : a.parts) {
    geom::Box box_a = pa.BoundingBox();
    for (const geom::ConvexRegion& pb : b.parts) {
      // Bounding-box lower bound: exact geometry only when it can improve
      // on the best pair found so far.
      if (best.Sign() >= 0 &&
          geom::Box::SquaredDistance(box_a, pb.BoundingBox()) >= best) {
        continue;
      }
      Rational d = geom::SquaredDistance(pa, pb);
      if (best.Sign() < 0 || d < best) best = d;
      if (best.IsZero()) return best;
    }
  }
  return best.Sign() < 0 ? Rational(0) : best;
}

Schema PairSchema(const SpatialOptions& options) {
  return Schema::Make({Schema::RelationalString(options.out_left),
                       Schema::RelationalString(options.out_right)})
      .value();
}

namespace {

Status EmitPair(Relation* out, const SpatialOptions& options,
                const std::string& left, const std::string& right) {
  Tuple pair;
  pair.SetValue(options.out_left, Value::String(left));
  pair.SetValue(options.out_right, Value::String(right));
  return out->Insert(std::move(pair));
}

Rect FeatureRect(const geom::Box& box) {
  return Rect::Make2D(Rect::RoundDown(box.x_min), Rect::RoundUp(box.x_max),
                      Rect::RoundDown(box.y_min), Rect::RoundUp(box.y_max));
}

/// An R*-tree over the bounding boxes of `features` (ids = indices), on
/// its own in-memory disk.
struct FeatureIndex {
  std::unique_ptr<PageManager> disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<RStarTree> tree;

  static Result<FeatureIndex> Build(const std::vector<Feature>& features) {
    FeatureIndex index;
    index.disk = std::make_unique<PageManager>();
    index.pool = std::make_unique<BufferPool>(index.disk.get(), 0);
    index.tree = std::make_unique<RStarTree>(index.pool.get(), 2);
    for (size_t i = 0; i < features.size(); ++i) {
      CCDB_RETURN_IF_ERROR(
          index.tree->Insert(FeatureRect(features[i].bounds), i));
    }
    return index;
  }
};

}  // namespace

Result<Relation> BufferJoin(const FeatureSet& lhs, const FeatureSet& rhs,
                            const Rational& distance,
                            const SpatialOptions& options) {
  if (distance.Sign() < 0) {
    return Status::InvalidArgument("buffer distance must be non-negative");
  }
  Relation out(PairSchema(options));
  const Rational distance_sq = distance * distance;

  auto refine_and_emit = [&](const Feature& left,
                             const Feature& right) -> Status {
    if (options.exclude_same_id && left.id == right.id) return Status::OK();
    if (FeatureSet::SquaredDistance(left, right) <= distance_sq) {
      return EmitPair(&out, options, left.id, right.id);
    }
    return Status::OK();
  };

  if (!options.use_index) {
    for (const Feature& left : lhs.features()) {
      CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
      // Buffer join is monotone — each emitted pair holds regardless of
      // which other features exist — so truncating mid-query still
      // leaves a sound subset.
      if (obs::GovernanceTruncating()) break;
      for (const Feature& right : rhs.features()) {
        CCDB_RETURN_IF_ERROR(refine_and_emit(left, right));
      }
    }
    out.Deduplicate();
    return out;
  }

  CCDB_ASSIGN_OR_RETURN(FeatureIndex index,
                        FeatureIndex::Build(rhs.features()));
  // Filter: grow the probe's bounding box by d (conservatively in doubles);
  // any feature within distance d must intersect the grown box.
  const double grow = Rect::RoundUp(distance);
  for (const Feature& left : lhs.features()) {
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    if (obs::GovernanceTruncating()) break;
    Rect window = FeatureRect(left.bounds);
    for (int d = 0; d < 2; ++d) {
      window.lo[d] -= grow;
      window.hi[d] += grow;
    }
    CCDB_ASSIGN_OR_RETURN(std::vector<uint64_t> candidates,
                          index.tree->Search(window));
    for (uint64_t candidate : candidates) {
      CCDB_RETURN_IF_ERROR(
          refine_and_emit(left, rhs.features()[candidate]));
    }
  }
  out.Deduplicate();
  return out;
}

Result<Relation> KNearest(const FeatureSet& lhs, const FeatureSet& rhs,
                          size_t k, const SpatialOptions& options) {
  Relation out(PairSchema(options));
  // k-nearest is non-monotone: over a truncated (subset) rhs the k slots
  // fill with farther features whose pairs are NOT in the true answer, so
  // a query already truncating gets the empty relation — the only sound
  // subset. A trip latching mid-query (from this operator's own output
  // charges) only stops the outer loop below: pairs already emitted were
  // ranked against the full rhs and remain sound.
  if (obs::GovernanceTruncating()) return out;
  if (k == 0 || rhs.size() == 0) return out;

  // (distance², id) ordering with ID tiebreak.
  auto closer = [](const std::pair<Rational, const Feature*>& a,
                   const std::pair<Rational, const Feature*>& b) {
    int cmp = a.first.Compare(b.first);
    if (cmp != 0) return cmp < 0;
    return a.second->id < b.second->id;
  };

  auto emit_k_nearest =
      [&](const Feature& left,
          std::vector<std::pair<Rational, const Feature*>> candidates)
      -> Status {
    std::sort(candidates.begin(), candidates.end(), closer);
    size_t emitted = 0;
    for (const auto& [dist, right] : candidates) {
      if (emitted == k) break;
      CCDB_RETURN_IF_ERROR(EmitPair(&out, options, left.id, right->id));
      ++emitted;
    }
    return Status::OK();
  };

  if (!options.use_index) {
    for (const Feature& left : lhs.features()) {
      CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
      if (obs::GovernanceTruncating()) break;
      std::vector<std::pair<Rational, const Feature*>> candidates;
      candidates.reserve(rhs.size());
      for (const Feature& right : rhs.features()) {
        if (options.exclude_same_id && left.id == right.id) continue;
        candidates.emplace_back(FeatureSet::SquaredDistance(left, right),
                                &right);
      }
      CCDB_RETURN_IF_ERROR(emit_k_nearest(left, std::move(candidates)));
    }
    return out;
  }

  CCDB_ASSIGN_OR_RETURN(FeatureIndex index,
                        FeatureIndex::Build(rhs.features()));
  for (const Feature& left : lhs.features()) {
    CCDB_RETURN_IF_ERROR(obs::CheckGovernance());
    if (obs::GovernanceTruncating()) break;
    // Expanding-window search: radius doubles until at least k candidates
    // are *confirmed* within the radius — then no unseen feature can be
    // closer than the k found (its bounding box would intersect the
    // window).
    Rect base = FeatureRect(left.bounds);
    double radius = 64.0;
    std::vector<std::pair<Rational, const Feature*>> candidates;
    while (true) {
      Rect window = base;
      for (int d = 0; d < 2; ++d) {
        window.lo[d] -= radius;
        window.hi[d] += radius;
      }
      CCDB_ASSIGN_OR_RETURN(std::vector<uint64_t> hits,
                            index.tree->Search(window));
      candidates.clear();
      size_t usable = 0;
      for (uint64_t hit : hits) {
        const Feature& right = rhs.features()[hit];
        if (options.exclude_same_id && left.id == right.id) continue;
        candidates.emplace_back(FeatureSet::SquaredDistance(left, right),
                                &right);
        ++usable;
      }
      CCDB_ASSIGN_OR_RETURN(const Rational exact_radius,
                            Rational::FromDouble(radius));
      const Rational radius_sq = exact_radius * exact_radius;
      size_t confirmed = 0;
      for (const auto& [dist, right] : candidates) {
        if (dist <= radius_sq) ++confirmed;
      }
      const bool exhausted =
          usable >= rhs.size() - (options.exclude_same_id ? 1 : 0);
      if (confirmed >= k || exhausted) break;
      radius *= 2;
    }
    CCDB_RETURN_IF_ERROR(emit_k_nearest(left, std::move(candidates)));
  }
  return out;
}

}  // namespace ccdb::cqa
