#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "data/database.h"
#include "data/workload.h"
#include "geom/box.h"
#include "lang/data_parser.h"

namespace perfbench {
namespace {

using ccdb::Relation;

// Shared catalog sizes. range_select reads Boxes and Mixed; hurricane_join
// reads Land, Landownership and Hurricane; ingest_mix reads Live and the
// Parcels relations and rewrites Live.
constexpr int64_t kBoxCount = 500;     // Boxes and Mixed: the same boxes
constexpr int64_t kBoxDomain = 3000;   // §5.4: corners in [0, 3000]
constexpr int kParcelRelations = 16;
constexpr int64_t kParcelBoxes = 300;
constexpr int64_t kLiveBoxes = 64;
constexpr int64_t kIngestDomain = 1000;
constexpr int64_t kMaxWindow = 300;    // windows are 1..300 wide
constexpr int64_t kGrid = 10;          // Land: kGrid x kGrid parcels...
constexpr int64_t kCell = 10;          // ...of kCell x kCell
constexpr int64_t kOwners = 200;
constexpr int64_t kHorizon = 100;      // ownership and hurricane time span
constexpr int kPaths = 2;
constexpr int kSegments = 10;
constexpr int64_t kRegion = 15;        // hurricane_join query regions
constexpr uint64_t kCatalogSeed = 2003;

/// splitmix64. The benchmark owns its generator so its inputs do not move
/// when the library's generator changes.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi]; the modulo bias is below 2^-40 for these spans.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

struct IBox {
  int64_t x0, x1, y0, y1;
};

bool Overlap(int64_t a0, int64_t a1, int64_t b0, int64_t b1) {
  return a0 <= b1 && b0 <= a1;
}

bool BoxesMeet(const IBox& a, const IBox& b) {
  return Overlap(a.x0, a.x1, b.x0, b.x1) && Overlap(a.y0, a.y1, b.y0, b.y1);
}

/// The paper's §5.4 recipe: an upper-left corner in [0, domain]^2, width
/// and height in [1, 100].
IBox RandomBox(Rand* rng, int64_t domain) {
  const int64_t x0 = rng->Uniform(0, domain);
  const int64_t y1 = rng->Uniform(0, domain);
  const int64_t w = rng->Uniform(1, 100);
  const int64_t h = rng->Uniform(1, 100);
  return IBox{x0, x0 + w, y1 - h, y1};
}

std::vector<IBox> RandomBoxes(Rand* rng, int64_t count, int64_t domain) {
  std::vector<IBox> boxes;
  for (int64_t i = 0; i < count; ++i) boxes.push_back(RandomBox(rng, domain));
  return boxes;
}

/// A query window 1..kMaxWindow wide on each axis.
IBox RandomWindow(Rand* rng, int64_t domain) {
  const int64_t x0 = rng->Uniform(0, domain);
  const int64_t y0 = rng->Uniform(0, domain);
  return IBox{x0, x0 + rng->Uniform(1, kMaxWindow), y0,
              y0 + rng->Uniform(1, kMaxWindow)};
}

std::vector<ccdb::geom::Box> ToGeom(const std::vector<IBox>& boxes) {
  std::vector<ccdb::geom::Box> out;
  for (const IBox& b : boxes) {
    out.push_back(ccdb::geom::Box{ccdb::Rational(b.x0), ccdb::Rational(b.x1),
                                  ccdb::Rational(b.y0), ccdb::Rational(b.y1)});
  }
  return out;
}

std::string S(int64_t v) { return std::to_string(v); }

std::string WindowPredicate(const IBox& w) {
  return "x >= " + S(w.x0) + ", x <= " + S(w.x1) + ", y >= " + S(w.y0) +
         ", y <= " + S(w.y1);
}

/// `coef·var + constant` in the step language's syntax (coefficients are
/// unsigned literals; signs come from the operators).
std::string Affine(int64_t coef, const std::string& var, int64_t constant) {
  std::string out;
  if (coef != 0) {
    if (coef < 0) out += "-";
    if (std::llabs(coef) != 1) out += S(std::llabs(coef));
    out += var;
  }
  if (constant != 0 || coef == 0) {
    if (out.empty()) return S(constant);
    out += constant < 0 ? " - " : " + ";
    out += S(std::llabs(constant));
  }
  return out;
}

// --- The hurricane scenario (§3.3, scaled up) ------------------------------

struct Period {
  std::string name;
  int64_t lo, hi;  // owned during [lo, hi]
};

/// One linear piece of a hurricane path: from (xa, ya) at ta to (xb, yb)
/// at tb.
struct Segment {
  int64_t ta, tb, xa, ya, xb, yb;
};

/// An exact fraction n/d with d > 0; values stay far below 2^40.
struct Frac {
  int64_t n, d;
};

bool LessEq(Frac a, Frac b) {
  return static_cast<__int128>(a.n) * b.d <= static_cast<__int128>(b.n) * a.d;
}

/// A closed interval of t narrowed by constraints a·t >= b.
struct TimeInterval {
  Frac lo{0, 1}, hi{kHorizon, 1};
  bool empty = false;

  void AtLeast(int64_t a, int64_t b) {
    if (a == 0) {
      if (b > 0) empty = true;
    } else if (a > 0) {
      const Frac f{b, a};
      if (LessEq(lo, f)) lo = f;
    } else {
      const Frac f{-b, -a};
      if (LessEq(f, hi)) hi = f;
    }
  }
  bool Empty() const { return empty || !LessEq(lo, hi); }
};

/// Whether the segment is inside `box` at some t in [t0, t1] (all bounds
/// closed).
bool SegmentMeets(const Segment& s, const IBox& box, int64_t t0, int64_t t1) {
  TimeInterval t;
  t.AtLeast(1, std::max(s.ta, t0));
  t.AtLeast(-1, -std::min(s.tb, t1));
  const int64_t d = s.tb - s.ta;
  // d·x(t) = d·xa + dx·(t - ta); lo <= x(t) <= hi, likewise for y.
  auto bound = [&](int64_t a, int64_t delta, int64_t lo, int64_t hi) {
    t.AtLeast(delta, d * (lo - a) + delta * s.ta);
    t.AtLeast(-delta, -(d * (hi - a) + delta * s.ta));
  };
  bound(s.xa, s.xb - s.xa, box.x0, box.x1);
  bound(s.ya, s.yb - s.ya, box.y0, box.y1);
  return !t.Empty();
}

struct Hurricane {
  std::vector<std::vector<Period>> owners;  // per parcel, index i*kGrid+j
  std::vector<std::vector<Segment>> paths;
};

IBox Parcel(int64_t i, int64_t j) {
  return IBox{i * kCell, (i + 1) * kCell, j * kCell, (j + 1) * kCell};
}

std::string ParcelId(int64_t i, int64_t j) {
  return "L" + S(i) + "_" + S(j);
}

Hurricane MakeHurricane(Rand* rng) {
  Hurricane h;
  for (int64_t p = 0; p < kGrid * kGrid; ++p) {
    const int64_t split = rng->Uniform(1, kHorizon - 1);
    h.owners.push_back(
        {Period{"Owner" + S(rng->Uniform(0, kOwners - 1)), 0, split},
         Period{"Owner" + S(rng->Uniform(0, kOwners - 1)), split, kHorizon}});
  }
  const int64_t extent = kGrid * kCell;
  const int64_t step = kHorizon / kSegments;
  for (int p = 0; p < kPaths; ++p) {
    // A random walk: each segment moves at most 25 on each axis.
    int64_t x = rng->Uniform(0, extent), y = rng->Uniform(0, extent);
    std::vector<Segment> path;
    for (int k = 0; k < kSegments; ++k) {
      const int64_t nx =
          std::clamp<int64_t>(x + rng->Uniform(-25, 25), 0, extent);
      const int64_t ny =
          std::clamp<int64_t>(y + rng->Uniform(-25, 25), 0, extent);
      path.push_back(Segment{k * step, (k + 1) * step, x, y, nx, ny});
      x = nx;
      y = ny;
    }
    h.paths.push_back(std::move(path));
  }
  return h;
}

std::string HurricaneText(const Hurricane& h) {
  std::string out =
      "relation Land\n"
      "schema landId: string relational; x: rational constraint; "
      "y: rational constraint\n";
  for (int64_t i = 0; i < kGrid; ++i) {
    for (int64_t j = 0; j < kGrid; ++j) {
      const IBox b = Parcel(i, j);
      out += "tuple landId = \"" + ParcelId(i, j) + "\", " +
             WindowPredicate(b) + "\n";
    }
  }
  out +=
      "relation Landownership\n"
      "schema name: string relational; t: rational constraint; "
      "landId: string relational\n";
  for (int64_t i = 0; i < kGrid; ++i) {
    for (int64_t j = 0; j < kGrid; ++j) {
      for (const Period& period : h.owners[i * kGrid + j]) {
        out += "tuple name = \"" + period.name + "\", t >= " + S(period.lo) +
               ", t <= " + S(period.hi) + ", landId = \"" + ParcelId(i, j) +
               "\"\n";
      }
    }
  }
  out +=
      "relation Hurricane\n"
      "schema t: rational constraint; x: rational constraint; "
      "y: rational constraint\n";
  for (const auto& path : h.paths) {
    for (const Segment& s : path) {
      const int64_t d = s.tb - s.ta;
      const int64_t dx = s.xb - s.xa, dy = s.yb - s.ya;
      out += "tuple t >= " + S(s.ta) + ", t <= " + S(s.tb) + ", " + S(d) +
             "x = " + Affine(dx, "t", s.xa * d - dx * s.ta) + ", " + S(d) +
             "y = " + Affine(dy, "t", s.ya * d - dy * s.ta) + "\n";
    }
  }
  return out;
}

/// The owners the oracle expects: for each parcel meeting `region`, each
/// ownership period overlapping [t0, t1] — and, when `hit` is set, only
/// when a hurricane segment is inside the parcel and region while owned.
std::vector<std::string> ExpectedOwners(const Hurricane& h, const IBox& region,
                                        int64_t t0, int64_t t1, bool hit) {
  std::set<std::string> names;
  for (int64_t i = 0; i < kGrid; ++i) {
    for (int64_t j = 0; j < kGrid; ++j) {
      const IBox parcel = Parcel(i, j);
      if (!BoxesMeet(parcel, region)) continue;
      const IBox inside{std::max(parcel.x0, region.x0),
                        std::min(parcel.x1, region.x1),
                        std::max(parcel.y0, region.y0),
                        std::min(parcel.y1, region.y1)};
      for (const Period& period : h.owners[i * kGrid + j]) {
        const int64_t lo = std::max(period.lo, t0);
        const int64_t hi = std::min(period.hi, t1);
        if (lo > hi) continue;
        bool met = !hit;
        for (const auto& path : h.paths) {
          for (const Segment& s : path) {
            met = met || SegmentMeets(s, inside, lo, hi);
          }
        }
        if (met) names.insert(period.name);
      }
    }
  }
  return {names.begin(), names.end()};
}

/// Floor of a path's x or y coordinate at integer time t.
int64_t PathCoordAt(const std::vector<Segment>& path, int64_t t, bool want_x) {
  const Segment& s = path[std::min<size_t>(
      static_cast<size_t>(t / (kHorizon / kSegments)), path.size() - 1)];
  const int64_t a = want_x ? s.xa : s.ya;
  const int64_t b = want_x ? s.xb : s.yb;
  return (a * (s.tb - s.ta) + (b - a) * (t - s.ta)) / (s.tb - s.ta);
}

// --- Operations ------------------------------------------------------------

/// Draws operations from `draw` until the script is new to this run.
template <typename Draw>
Op Unique(std::set<std::string>* seen, Draw draw) {
  while (true) {
    Op op = draw();
    if (seen->insert(op.script).second) return op;
  }
}

Op CountRead(std::string shape, std::string script, size_t expected) {
  Op op;
  op.shape = std::move(shape);
  op.script = std::move(script);
  op.expected_count = expected;
  return op;
}

Op RangeSelectRead(Rand* rng, size_t index, const std::vector<IBox>& boxes) {
  const IBox w = RandomWindow(rng, kBoxDomain);
  size_t expected = 0;
  switch (index % 3) {
    case 0: {  // Fig. 4: two-attribute window on constraint x, y
      for (const IBox& b : boxes) expected += BoxesMeet(b, w);
      return CountRead("fig4", "R0 = select " + WindowPredicate(w) +
                                   " from Boxes",
                       expected);
    }
    case 1: {  // Fig. 5: one-attribute x-range, then project onto y
      // Projection deduplicates, so boxes sharing a y-interval count once.
      std::set<std::pair<int64_t, int64_t>> ys;
      for (const IBox& b : boxes) {
        if (Overlap(b.x0, b.x1, w.x0, w.x1)) ys.insert({b.y0, b.y1});
      }
      return CountRead("fig5",
                       "R0 = select x >= " + S(w.x0) + ", x <= " + S(w.x1) +
                           " from Boxes\nR1 = project R0 on y",
                       ys.size());
    }
    default: {  // Experiment 3: x constraint, y relational (box center)
      for (const IBox& b : boxes) {
        const int64_t twice_center = b.y0 + b.y1;
        expected += Overlap(b.x0, b.x1, w.x0, w.x1) &&
                    2 * w.y0 <= twice_center && twice_center <= 2 * w.y1;
      }
      return CountRead("exp3", "R0 = select " + WindowPredicate(w) +
                                   " from Mixed",
                       expected);
    }
  }
}

Op HurricaneRead(Rand* rng, size_t index, const Hurricane& h) {
  const int64_t width = rng->Uniform(2, 10);
  const int64_t t0 = rng->Uniform(0, kHorizon - width);
  const int64_t t1 = t0 + width;
  const int64_t max_corner = kGrid * kCell - kRegion;
  int64_t x0 = rng->Uniform(0, max_corner), y0 = rng->Uniform(0, max_corner);
  if (rng->Uniform(0, 1) == 1) {
    // Half the regions sit where a hurricane is at t0, so hit-queries
    // return owners often enough to exercise the oracle.
    const auto& path =
        h.paths[static_cast<size_t>(rng->Uniform(0, kPaths - 1))];
    x0 = std::clamp<int64_t>(PathCoordAt(path, t0, true) - kRegion / 2, 0,
                             max_corner);
    y0 = std::clamp<int64_t>(PathCoordAt(path, t0, false) - kRegion / 2, 0,
                             max_corner);
  }
  const IBox region{x0, x0 + kRegion, y0, y0 + kRegion};
  const std::string land =
      "R0 = select " + WindowPredicate(region) + " from Land\n";
  const std::string window = "t >= " + S(t0) + ", t <= " + S(t1);
  Op op;
  op.expects_names = true;
  switch (index % 3) {
    case 0:  // owners of the region during the window
      op.shape = "owners";
      op.script = land + "R1 = select " + window +
                  " from Landownership\nR2 = join R0 and R1\n"
                  "R3 = project R2 on name";
      op.expected_names = ExpectedOwners(h, region, t0, t1, false);
      break;
    case 1:  // Query 3, time filter on Hurricane before the join
      op.shape = "query3_pushed";
      op.script = land + "R1 = join Landownership and R0\nR2 = select " +
                  window +
                  " from Hurricane\nR3 = join R1 and R2\n"
                  "R4 = project R3 on name";
      op.expected_names = ExpectedOwners(h, region, t0, t1, true);
      break;
    default:  // Query 3, time filter written after the join
      op.shape = "query3_late";
      op.script = land +
                  "R1 = join Landownership and R0\n"
                  "R2 = join R1 and Hurricane\nR3 = select " +
                  window + " from R2\nR4 = project R3 on name";
      op.expected_names = ExpectedOwners(h, region, t0, t1, true);
      break;
  }
  return op;
}

Op IngestRead(Rand* rng, const std::vector<IBox>& live,
              const std::vector<std::vector<IBox>>& parcels) {
  const IBox w = RandomWindow(rng, kIngestDomain);
  const int64_t k = rng->Uniform(0, kParcelRelations - 1);
  size_t expected = 0;
  for (const IBox& l : live) {
    if (!BoxesMeet(l, w)) continue;
    const IBox lw{std::max(l.x0, w.x0), std::min(l.x1, w.x1),
                  std::max(l.y0, w.y0), std::min(l.y1, w.y1)};
    for (const IBox& p : parcels[static_cast<size_t>(k)]) {
      expected += BoxesMeet(lw, p);
    }
  }
  const std::string pred = WindowPredicate(w);
  return CountRead("spatial_join",
                   "R0 = select " + pred + " from Live\nR1 = select " + pred +
                       " from Parcels" + S(k) + "\nR2 = join R0 and R1",
                   expected);
}

Op Commit(const std::vector<IBox>& boxes) {
  Op op;
  op.kind = OpKind::kCommit;
  op.shape = "commit";
  op.live = std::make_shared<const Relation>(
      ccdb::BoxesToConstraintRelation(ToGeom(boxes)));
  return op;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"range_select",
                                                 "hurricane_join",
                                                 "ingest_mix"};
  return names;
}

bool HasOwnCommits(const std::string& workload) {
  return workload == "ingest_mix";
}

RunSize SizeFor(const std::string& workload, double seconds) {
  // Rates are operations per second on a 4-vCPU x86 VM; rounds are whole
  // cycles of every share (12 ops) and short enough that a round's WAL
  // and superseded pages stay in the low hundreds of MB.
  double per_second = 120;
  size_t round_ops = 600;
  if (workload == "hurricane_join") {
    per_second = 80;
    round_ops = 360;
  } else if (workload == "ingest_mix") {
    per_second = 80;
    round_ops = 384;
  }
  RunSize size;
  size.rounds = std::max<size_t>(
      4, static_cast<size_t>(std::ceil(seconds * per_second /
                                       static_cast<double>(round_ops))));
  size.ops_per_round = round_ops;
  // 300 commits leave 30 samples beyond the commit p90.
  constexpr size_t kTailCommits = 300;
  size.tail_per_round = HasOwnCommits(workload)
                            ? 0
                            : (kTailCommits + size.rounds - 1) / size.rounds;
  return size;
}

ccdb::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                                const RunSize& size) {
  // The catalog is one fixed data set, like the paper's data files: it
  // does not depend on the seed, so runs at different seeds differ only in
  // their operations, not in the data they run on.
  Rand catalog_rng(kCatalogSeed);
  std::vector<std::vector<IBox>> parcels;
  for (int k = 0; k < kParcelRelations; ++k) {
    parcels.push_back(RandomBoxes(&catalog_rng, kParcelBoxes, kIngestDomain));
  }
  std::vector<IBox> live =
      RandomBoxes(&catalog_rng, kLiveBoxes, kIngestDomain);
  const std::vector<IBox> boxes =
      RandomBoxes(&catalog_rng, kBoxCount, kBoxDomain);
  const Hurricane hurricane = MakeHurricane(&catalog_rng);

  Inputs in;
  for (int k = 0; k < kParcelRelations; ++k) {
    in.catalog.emplace_back(
        "Parcels" + S(k), ccdb::BoxesToConstraintRelation(ToGeom(parcels[k])));
  }
  in.catalog.emplace_back("Live",
                          ccdb::BoxesToConstraintRelation(ToGeom(live)));
  in.catalog.emplace_back("Boxes",
                          ccdb::BoxesToConstraintRelation(ToGeom(boxes)));
  in.catalog.emplace_back("Mixed", ccdb::BoxesToMixedRelation(ToGeom(boxes)));
  ccdb::Database scenario;
  CCDB_RETURN_IF_ERROR(
      ccdb::lang::LoadDatabaseText(HurricaneText(hurricane), &scenario));
  for (const char* name : {"Land", "Landownership", "Hurricane"}) {
    CCDB_ASSIGN_OR_RETURN(const Relation* rel, scenario.Get(name));
    in.catalog.emplace_back(name, *rel);
  }

  Rand rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::set<std::string> seen;
  const std::vector<IBox> initial_live = live;
  for (size_t r = 0; r < size.rounds; ++r) {
    Round round;
    live = initial_live;  // every round starts on a freshly loaded catalog
    for (size_t i = 0; i < size.ops_per_round; ++i) {
      if (workload == "range_select") {
        round.ops.push_back(
            Unique(&seen, [&] { return RangeSelectRead(&rng, i, boxes); }));
      } else if (workload == "hurricane_join") {
        round.ops.push_back(
            Unique(&seen, [&] { return HurricaneRead(&rng, i, hurricane); }));
      } else if (i % 4 == 3) {
        live = RandomBoxes(&rng, kLiveBoxes, kIngestDomain);
        round.ops.push_back(Commit(live));
      } else {
        round.ops.push_back(
            Unique(&seen, [&] { return IngestRead(&rng, live, parcels); }));
      }
    }
    for (size_t i = 0; i < size.tail_per_round; ++i) {
      round.tail.push_back(
          Commit(RandomBoxes(&rng, kLiveBoxes, kIngestDomain)));
    }
    in.rounds.push_back(std::move(round));
  }
  return in;
}

std::string CheckAnswer(const Op& op, const Relation& result) {
  if (!op.expects_names) {
    if (result.size() == op.expected_count) return "";
    return op.shape + ": " + std::to_string(result.size()) +
           " tuples, expected " + std::to_string(op.expected_count);
  }
  std::vector<std::string> names;
  for (const ccdb::Tuple& t : result.tuples()) {
    const ccdb::Value& v = t.GetValue("name");
    if (!v.IsString()) return op.shape + ": a result tuple has no name";
    names.push_back(v.AsString());
  }
  std::sort(names.begin(), names.end());
  if (names == op.expected_names) return "";
  auto join = [](const std::vector<std::string>& v) {
    std::string out;
    for (const std::string& s : v) out += (out.empty() ? "" : ",") + s;
    return "{" + out + "}";
  };
  return op.shape + ": owners " + join(names) + ", expected " +
         join(op.expected_names);
}

}  // namespace perfbench
