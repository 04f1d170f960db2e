// Parameterized property suites: randomized invariants swept over sizes,
// dimensions, and seeds with INSTANTIATE_TEST_SUITE_P.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "ccdb.h"

namespace ccdb {
namespace {

LinearExpr V(const std::string& n) { return LinearExpr::Variable(n); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

/// R1 × R2 and R1 ∩ R2 of the reference semantics: the natural join, after
/// the schema check each implies. The checks live here, not in the step
/// compiler's copy, so that the reference stays independent of it.
Result<Relation> CrossProduct(const Relation& lhs, const Relation& rhs) {
  for (const Attribute& attr : lhs.schema().attributes()) {
    if (rhs.schema().Has(attr.name)) {
      return Status::InvalidArgument(
          "cross product requires disjoint schemas; shared attribute '" +
          attr.name + "'");
    }
  }
  return cqa::NaturalJoin(lhs, rhs);
}

Result<Relation> Intersect(const Relation& lhs, const Relation& rhs) {
  if (lhs.schema() != rhs.schema()) {
    return Status::InvalidArgument("intersection requires identical schemas");
  }
  return cqa::NaturalJoin(lhs, rhs);
}

// --- BigInt: division identities over magnitude ranges -------------------------

class BigIntDivisionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(BigIntDivisionProperty, QuotientRemainderIdentity) {
  auto [dividend_digits, divisor_digits, seed] = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 50; ++iter) {
    std::string a_text, b_text;
    for (int i = 0; i < dividend_digits; ++i) {
      a_text += static_cast<char>('0' + rng.UniformInt(i ? 0 : 1, 9));
    }
    for (int i = 0; i < divisor_digits; ++i) {
      b_text += static_cast<char>('0' + rng.UniformInt(i ? 0 : 1, 9));
    }
    if (rng.UniformInt(0, 1)) a_text.insert(0, "-");
    if (rng.UniformInt(0, 1)) b_text.insert(0, "-");
    BigInt a = BigInt::FromString(a_text).value();
    BigInt b = BigInt::FromString(b_text).value();
    ASSERT_FALSE(b.IsZero());
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    // Euclid: a = qb + r, |r| < |b|, sign(r) in {0, sign(a)}.
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.Abs().Compare(b.Abs()), 0);
    if (!r.IsZero()) EXPECT_EQ(r.Sign(), a.Sign());
    // Gcd divides both.
    BigInt g = BigInt::Gcd(a, b);
    EXPECT_TRUE((a % g).IsZero());
    EXPECT_TRUE((b % g).IsZero());
    // String round-trip.
    EXPECT_EQ(BigInt::FromString(a.ToString()).value(), a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MagnitudeSweep, BigIntDivisionProperty,
    ::testing::Values(std::tuple{5, 3, 1}, std::tuple{12, 9, 2},
                      std::tuple{25, 10, 3}, std::tuple{40, 20, 4},
                      std::tuple{60, 35, 5}, std::tuple{30, 30, 6}),
    [](const auto& info) {
      return "a" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// --- Fourier-Motzkin: projection soundness/completeness over shapes -------------

struct FmCase {
  int vars;
  int constraints;
  uint64_t seed;
};

class FmProjectionProperty : public ::testing::TestWithParam<FmCase> {};

TEST_P(FmProjectionProperty, ProjectionIsExact) {
  const FmCase param = GetParam();
  Rng rng(param.seed);
  std::vector<std::string> names;
  for (int v = 0; v < param.vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  for (int iter = 0; iter < 25; ++iter) {
    Conjunction c;
    for (int i = 0; i < param.constraints; ++i) {
      LinearExpr e;
      for (const std::string& name : names) {
        e.AddTerm(name, Rational(rng.UniformInt(-2, 2)));
      }
      e.AddConstant(Rational(rng.UniformInt(-8, 8)));
      int op = static_cast<int>(rng.UniformInt(0, 2));
      c.Add(Constraint(std::move(e), op == 0   ? ConstraintOp::kLe
                                      : op == 1 ? ConstraintOp::kLt
                                                : ConstraintOp::kEq));
    }
    // Project away the last variable.
    const std::string& gone = names.back();
    std::set<std::string> keep(names.begin(), names.end() - 1);
    Conjunction projected = fm::Project(c, keep);
    EXPECT_FALSE(projected.Mentions(gone));

    for (int s = 0; s < 10; ++s) {
      Assignment full, partial;
      for (const std::string& name : names) {
        Rational value(rng.UniformInt(-10, 10), rng.UniformInt(1, 3));
        full[name] = value;
        if (name != gone) partial[name] = value;
      }
      // Soundness: a satisfying full point restricts to a satisfying
      // partial point.
      if (c.IsSatisfiedBy(full)) {
        EXPECT_TRUE(projected.IsSatisfiedBy(partial));
      }
      // Completeness: a satisfying partial point extends to some value of
      // the eliminated variable.
      if (projected.IsSatisfiedBy(partial)) {
        Conjunction pinned = c;
        for (const auto& [name, value] : partial) {
          pinned = pinned.Substitute(name, LinearExpr::Constant(value));
        }
        EXPECT_TRUE(fm::IsSatisfiable(pinned));
      }
    }
  }
}

TEST_P(FmProjectionProperty, BoxProjectionMatchesEliminationSteps) {
  // Boxes: every member mentions one variable, so Project settles them by
  // their intervals. The reference is FM's own step, one dropped variable
  // at a time. Constants in [-3, 3] over coefficients ±1, ±2 make bounds
  // touch often, strict against closed at equal values, and leave some
  // intervals empty.
  const FmCase param = GetParam();
  Rng rng(param.seed);
  std::vector<std::string> names;
  for (int v = 0; v < param.vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  for (int iter = 0; iter < 100; ++iter) {
    Conjunction c;
    for (int i = 0; i < param.constraints; ++i) {
      const std::string& name =
          names[static_cast<size_t>(rng.UniformInt(0, param.vars - 1))];
      int64_t coeff = rng.UniformInt(1, 2) * (rng.UniformInt(0, 1) ? 1 : -1);
      LinearExpr e = LinearExpr::Term(name, Rational(coeff));
      e.AddConstant(Rational(rng.UniformInt(-3, 3)));
      int op = static_cast<int>(rng.UniformInt(0, 2));
      c.Add(Constraint(std::move(e), op == 0   ? ConstraintOp::kLe
                                      : op == 1 ? ConstraintOp::kLt
                                                : ConstraintOp::kEq));
    }
    std::set<std::string> keep;
    for (const std::string& name : names) {
      if (rng.UniformInt(0, 1)) keep.insert(name);
    }
    Conjunction reference = c;
    Conjunction unsat_reference = c;
    for (const std::string& name : names) {
      if (!keep.count(name)) {
        reference = fm::EliminateVariable(reference, name);
      }
      unsat_reference = fm::EliminateVariable(unsat_reference, name);
    }
    obs::CounterScope scope;
    const Conjunction projected = fm::Project(c, keep);
    EXPECT_TRUE(projected == reference)
        << c.ToString() << ": " << projected.ToString() << " vs "
        << reference.ToString();
    EXPECT_EQ(fm::IsSatisfiable(c), !unsat_reference.IsKnownFalse())
        << c.ToString();
    EXPECT_EQ(scope.counters().fm_eliminations, 0u) << c.ToString();
    EXPECT_GT(scope.counters().box_solves, 0u) << c.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, FmProjectionProperty,
    ::testing::Values(FmCase{2, 3, 11}, FmCase{2, 6, 12}, FmCase{3, 4, 13},
                      FmCase{3, 8, 14}, FmCase{4, 5, 15}, FmCase{4, 9, 16}),
    [](const auto& info) {
      return "v" + std::to_string(info.param.vars) + "_c" +
             std::to_string(info.param.constraints) + "_s" +
             std::to_string(info.param.seed);
    });

// --- RemoveRedundant: equivalence preserved over shapes --------------------------

class FmRedundancyProperty : public ::testing::TestWithParam<FmCase> {};

TEST_P(FmRedundancyProperty, MinimizationPreservesSemantics) {
  const FmCase param = GetParam();
  Rng rng(param.seed * 7919);
  for (int iter = 0; iter < 15; ++iter) {
    Conjunction c;
    for (int i = 0; i < param.constraints; ++i) {
      LinearExpr e;
      for (int v = 0; v < param.vars; ++v) {
        e.AddTerm("v" + std::to_string(v), Rational(rng.UniformInt(-2, 2)));
      }
      e.AddConstant(Rational(rng.UniformInt(-8, 8)));
      c.Add(Constraint(std::move(e), rng.UniformInt(0, 1)
                                         ? ConstraintOp::kLe
                                         : ConstraintOp::kLt));
    }
    Conjunction reduced = fm::RemoveRedundant(c);
    EXPECT_LE(reduced.size(), c.size());
    EXPECT_TRUE(fm::AreEquivalent(c, reduced))
        << c.ToString() << "  vs  " << reduced.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, FmRedundancyProperty,
                         ::testing::Values(FmCase{2, 4, 1}, FmCase{2, 8, 2},
                                           FmCase{3, 6, 3}, FmCase{3, 10, 4}),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param.vars) +
                                  "_c" +
                                  std::to_string(info.param.constraints) +
                                  "_s" + std::to_string(info.param.seed);
                         });

// --- One bound per side: Conjunction::Add keeps the tightest bound -------------

class ConjunctionBoundProperty : public ::testing::TestWithParam<uint64_t> {};

/// The side from which `c` bounds its one variable (+1 above, -1 below),
/// or 0 for an equality or a member over several variables.
int SideOf(const Constraint& c) {
  if (c.op() == ConstraintOp::kEq || c.expr().terms().size() != 1) return 0;
  return c.expr().terms().begin()->second.Sign();
}

TEST_P(ConjunctionBoundProperty, OneBoundPerSideWhateverTheOrder) {
  // Stores mix single-variable bounds, strict and closed, over
  // coefficients ±1..±3 and constants in [-4, 4], so that bounds are often
  // fractional and often touch or coincide, with two-variable members and
  // equalities. Each store is added in several random orders: every order
  // must leave the same representation, hold at most one bound per
  // variable and side, and have the points of the raw member list.
  Rng rng(GetParam());
  const std::vector<std::string> names = {"u", "v", "w"};
  auto pick = [&](int64_t lo, int64_t hi) {
    return static_cast<size_t>(rng.UniformInt(lo, hi));
  };
  size_t replaced_or_dropped = 0;
  for (int iter = 0; iter < 80; ++iter) {
    std::vector<Constraint> members;
    std::vector<std::pair<std::string, Rational>> endpoints;
    const size_t count = pick(1, 12);
    for (size_t i = 0; i < count; ++i) {
      const size_t index = pick(0, 2);
      const std::string& name = names[index];
      const int64_t coeff =
          rng.UniformInt(1, 3) * (rng.UniformInt(0, 1) ? 1 : -1);
      LinearExpr e = LinearExpr::Term(name, Rational(coeff));
      e.AddConstant(Rational(rng.UniformInt(-4, 4)));
      const size_t kind = pick(0, 9);
      if (kind == 8) {  // a two-variable member
        e.AddTerm(names[(index + pick(1, 2)) % 3],
                  Rational(rng.UniformInt(1, 2) *
                           (rng.UniformInt(0, 1) ? 1 : -1)));
      } else {
        endpoints.emplace_back(name, -e.constant() / Rational(coeff));
      }
      ConstraintOp op = rng.UniformInt(0, 1) ? ConstraintOp::kLe
                                             : ConstraintOp::kLt;
      if (kind == 9) op = ConstraintOp::kEq;
      members.emplace_back(std::move(e), op);
    }
    const Conjunction reference(members);
    std::set<std::pair<std::string, int>> sides;
    for (const Constraint& c : reference.constraints()) {
      if (const int side = SideOf(c)) {
        EXPECT_TRUE(sides.emplace(c.expr().terms().begin()->first, side).second)
            << reference.ToString();
      }
    }
    const std::set<Constraint> distinct(members.begin(), members.end());
    if (reference.size() < distinct.size()) ++replaced_or_dropped;

    std::vector<Constraint> shuffled = members;
    for (int order = 0; order < 4; ++order) {
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[pick(0, static_cast<int64_t>(i) - 1)]);
      }
      const Conjunction again(shuffled);
      EXPECT_TRUE(again == reference)
          << again.ToString() << " vs " << reference.ToString();
      EXPECT_EQ(again.ToString(), reference.ToString());
    }

    auto raw_holds = [&](const Assignment& point) {
      return std::all_of(members.begin(), members.end(),
                         [&](const Constraint& c) {
                           return c.IsSatisfiedBy(point);
                         });
    };
    auto random_point = [&]() {
      Assignment point;
      for (const std::string& name : names) {
        point[name] = Rational(rng.UniformInt(-12, 12), rng.UniformInt(1, 6));
      }
      return point;
    };
    std::vector<Assignment> points;
    for (int i = 0; i < 20; ++i) points.push_back(random_point());
    for (const auto& [name, value] : endpoints) {
      Assignment point = random_point();
      point[name] = value;
      points.push_back(point);
      // Every variable at an endpoint, where touching bounds meet.
      for (const auto& [other, other_value] : endpoints) {
        point[other] = other_value;
      }
      points.push_back(point);
    }
    for (const Assignment& point : points) {
      EXPECT_EQ(reference.IsSatisfiedBy(point), raw_holds(point))
          << reference.ToString();
    }
  }
  // The sweep exercised the rule: some stores lost a member to it.
  EXPECT_GT(replaced_or_dropped, 10u);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ConjunctionBoundProperty,
                         ::testing::Values(71, 72, 73, 74, 75),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- LinearExpr: the sorted term vector against a std::map model ------------

class LinearExprModelProperty : public ::testing::TestWithParam<uint64_t> {};

/// The reference: the expression as an ordered map and a constant.
struct ExprModel {
  std::map<std::string, Rational> terms;
  Rational constant;

  void Add(const std::string& var, const Rational& coeff) {
    Rational& slot = terms[var];
    slot += coeff;
    if (slot.IsZero()) terms.erase(var);
  }
  ExprModel Plus(const ExprModel& other, const Rational& scale) const {
    ExprModel out = *this;
    out.constant += other.constant * scale;
    for (const auto& [var, coeff] : other.terms) out.Add(var, coeff * scale);
    return out;
  }
  bool operator<(const ExprModel& other) const {
    return std::tie(terms, constant) < std::tie(other.terms, other.constant);
  }
  /// The rendering `LinearExpr::ToString` gives, written out over the map.
  std::string ToString() const {
    if (terms.empty()) return constant.ToString();
    std::string out;
    for (const auto& [var, coeff] : terms) {
      const Rational mag = coeff.Abs();
      const std::string body = mag == Rational(1) ? var : mag.ToString() + var;
      if (out.empty()) {
        out = (coeff.Sign() < 0 ? "-" : "") + body;
      } else {
        out += (coeff.Sign() < 0 ? " - " : " + ") + body;
      }
    }
    if (constant.Sign() > 0) out += " + " + constant.ToString();
    if (constant.Sign() < 0) out += " - " + constant.Abs().ToString();
    return out;
  }
};

TEST_P(LinearExprModelProperty, SortedTermsMatchTheMapModel) {
  // Random edits over a few names, with zero, fractional and multi-limb
  // coefficients, so that sums cancel terms and values cross the BigInt
  // small form. After every edit the expression must hold the model's
  // terms in the model's (name) order, no zero coefficient, and render
  // and order as the model does.
  Rng rng(GetParam());
  const std::vector<std::string> names = {"a", "b", "t", "x", "y", "z"};
  auto name = [&] { return names[rng.UniformInt(0, 5)]; };
  auto coeff = [&]() -> Rational {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return Rational(0);
      case 1:
        return Rational((int64_t{1} << 62) + rng.UniformInt(-3, 3),
                        rng.UniformInt(1, 2));
      default:
        return Rational(rng.UniformInt(-4, 4), rng.UniformInt(1, 3));
    }
  };
  constexpr size_t kSlots = 4;
  std::vector<LinearExpr> exprs(kSlots);
  std::vector<ExprModel> models(kSlots);
  auto check = [&](size_t i) {
    const LinearExpr& e = exprs[i];
    const ExprModel& m = models[i];
    ASSERT_EQ(e.terms().size(), m.terms.size()) << e.ToString();
    auto it = m.terms.begin();
    for (const auto& [var, c] : e.terms()) {
      EXPECT_EQ(var, it->first);
      EXPECT_EQ(c, it->second);
      EXPECT_FALSE(c.IsZero());
      ++it;
    }
    EXPECT_EQ(e.constant(), m.constant);
    EXPECT_EQ(e.ToString(), m.ToString());
    for (const std::string& var : names) {
      EXPECT_EQ(e.Mentions(var), m.terms.count(var) > 0);
      EXPECT_EQ(e.Coeff(var),
                m.terms.count(var) ? m.terms.at(var) : Rational());
    }
  };
  for (int step = 0; step < 600; ++step) {
    const size_t i = static_cast<size_t>(rng.UniformInt(0, kSlots - 1));
    const size_t j = static_cast<size_t>(rng.UniformInt(0, kSlots - 1));
    LinearExpr& e = exprs[i];
    ExprModel& m = models[i];
    switch (rng.UniformInt(0, 8)) {
      case 0:
      case 1: {
        const std::string var = name();
        const Rational c = coeff();
        e.AddTerm(var, c);
        m.Add(var, c);
        break;
      }
      case 2: {
        const Rational c = coeff();
        e.AddConstant(c);
        m.constant += c;
        break;
      }
      case 3:
        e = e + exprs[j];
        m = m.Plus(models[j], Rational(1));
        break;
      case 4:
        e = e - exprs[j];
        m = m.Plus(models[j], Rational(-1));
        break;
      case 5: {
        const Rational factor = coeff();
        e = e * factor;
        m = ExprModel().Plus(m, factor);
        break;
      }
      case 6: {
        // Substitute another slot, minus its own mention of `var`, so that
        // the replacement never mentions the variable it replaces.
        const std::string var = name();
        LinearExpr replacement = exprs[j];
        ExprModel replacement_model = models[j];
        if (replacement.Mentions(var)) {
          replacement.AddTerm(var, -replacement.Coeff(var));
          replacement_model.terms.erase(var);
        }
        e = e.Substitute(var, replacement);
        if (m.terms.count(var)) {
          const Rational c = m.terms.at(var);
          m.terms.erase(var);
          m = m.Plus(replacement_model, c);
        }
        break;
      }
      case 7: {
        const std::string from = name();
        const std::string to = name();
        if (from == to || e.Mentions(to)) break;
        e = e.RenameVariable(from, to);
        if (m.terms.count(from)) {
          m.terms[to] = m.terms.at(from);
          m.terms.erase(from);
        }
        break;
      }
      case 8: {
        const std::string var = name();
        const Rational c = coeff();
        const bool fits =
            !c.IsZero() && (m.terms.empty() || m.terms.rbegin()->first < var);
        EXPECT_EQ(e.AppendTerm(var, c), fits);
        if (fits) m.terms[var] = c;
        break;
      }
    }
    check(i);
    // Substituting a slot into itself doubles its numbers' length; start
    // a slot afresh once they pass a few limbs.
    auto bits = [](const Rational& q) {
      return std::max(q.numerator().BitLength(), q.denominator().BitLength());
    };
    size_t longest = bits(e.constant());
    for (const auto& [var, c] : e.terms()) longest = std::max(longest, bits(c));
    if (longest > 256) {
      e = LinearExpr();
      m = ExprModel();
    }
    EXPECT_EQ(exprs[i] < exprs[j], models[i] < models[j])
        << exprs[i].ToString() << " vs " << exprs[j].ToString();
    EXPECT_EQ(exprs[i] == exprs[j],
              !(models[i] < models[j]) && !(models[j] < models[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, LinearExprModelProperty,
                         ::testing::Values(81, 82, 83, 84, 85),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- R*-tree: invariants + exactness over dims / sizes / caches ------------------

struct TreeCase {
  int dims;
  int entries;
  size_t cache_pages;
  uint64_t seed;
};

class RTreeProperty : public ::testing::TestWithParam<TreeCase> {};

TEST_P(RTreeProperty, InvariantsAndExactSearch) {
  const TreeCase param = GetParam();
  PageManager disk;
  BufferPool pool(&disk, param.cache_pages);
  RStarTree tree(&pool, param.dims);
  Rng rng(param.seed);
  auto random_box = [&]() {
    double x = static_cast<double>(rng.UniformInt(0, 3000));
    double w = static_cast<double>(rng.UniformInt(1, 100));
    if (param.dims == 1) return Rect::Make1D(x, x + w);
    double y = static_cast<double>(rng.UniformInt(0, 3000));
    double h = static_cast<double>(rng.UniformInt(1, 100));
    if (param.dims == 2) return Rect::Make2D(x, x + w, y, y + h);
    double z = static_cast<double>(rng.UniformInt(0, 3000));
    double d = static_cast<double>(rng.UniformInt(1, 100));
    return Rect::Make3D(x, x + w, y, y + h, z, z + d);
  };
  std::vector<Rect> boxes;
  for (int i = 0; i < param.entries; ++i) {
    boxes.push_back(random_box());
    ASSERT_TRUE(tree.Insert(boxes.back(), static_cast<uint64_t>(i)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (int q = 0; q < 20; ++q) {
    Rect query = random_box();
    auto hits = tree.Search(query);
    ASSERT_TRUE(hits.ok());
    std::vector<uint64_t> got = *hits;
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].Intersects(query)) expected.push_back(i);
    }
    EXPECT_EQ(got, expected);
  }
  // Delete a third, re-verify.
  for (int i = 0; i < param.entries; i += 3) {
    ASSERT_TRUE(tree.Delete(boxes[static_cast<size_t>(i)],
                            static_cast<uint64_t>(i))
                    .ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    DimsSizesCaches, RTreeProperty,
    ::testing::Values(TreeCase{1, 300, 0, 1}, TreeCase{1, 1500, 8, 2},
                      TreeCase{2, 300, 0, 3}, TreeCase{2, 1500, 8, 4},
                      TreeCase{2, 3000, 0, 5}, TreeCase{2, 800, 2, 6},
                      TreeCase{3, 400, 0, 7}, TreeCase{3, 1500, 8, 8}),
    [](const auto& info) {
      return std::to_string(info.param.dims) + "d_n" +
             std::to_string(info.param.entries) + "_c" +
             std::to_string(info.param.cache_pages) + "_s" +
             std::to_string(info.param.seed);
    });

// --- CQA operators: closure semantics over seeds ---------------------------------

/// Random constraint members over attributes `a` and `b`, in every shape
/// the operators' box test meets: random multi-variable members,
/// single-variable boxes, boxes pinned by an equality, and boxes with one
/// multi-variable member. Box ends lie on an integer grid, so closed and
/// strict ends of different stores (and of predicates) often meet at a
/// shared endpoint; a side is sometimes left unbounded.
class MemberGenerator {
 public:
  explicit MemberGenerator(uint64_t seed) : rng_(seed) {}

  std::vector<Constraint> Members(const std::string& a, const std::string& b) {
    std::vector<Constraint> members;
    const int shape = static_cast<int>(rng_.UniformInt(0, 3));
    if (shape == 0) {
      int m = static_cast<int>(rng_.UniformInt(1, 3));
      for (int j = 0; j < m; ++j) members.push_back(Mixed(a, b));
      return members;
    }
    for (const std::string& var : {a, b}) {
      const int64_t lo = rng_.UniformInt(-4, 3);
      const int64_t hi = lo + rng_.UniformInt(0, 3);
      if (rng_.UniformInt(0, 4) != 0) members.push_back(Bound(var, lo, true));
      if (rng_.UniformInt(0, 4) != 0) members.push_back(Bound(var, hi, false));
    }
    if (shape == 2) {
      members.push_back(Constraint::Eq(V(rng_.UniformInt(0, 1) ? a : b),
                                       C(rng_.UniformInt(-3, 3))));
    }
    if (shape == 3) members.push_back(Mixed(a, b));
    return members;
  }

  Rng& rng() { return rng_; }

 private:
  /// `var >= at` / `var > at` (lower) or `var <= at` / `var < at`.
  Constraint Bound(const std::string& var, int64_t at, bool lower) {
    const bool strict = rng_.UniformInt(0, 1) == 1;
    if (lower) {
      return strict ? Constraint::Gt(V(var), C(at))
                    : Constraint::Ge(V(var), C(at));
    }
    return strict ? Constraint::Lt(V(var), C(at))
                  : Constraint::Le(V(var), C(at));
  }

  Constraint Mixed(const std::string& a, const std::string& b) {
    LinearExpr e = V(a) * Rational(rng_.UniformInt(-2, 2)) +
                   V(b) * Rational(rng_.UniformInt(-2, 2)) +
                   C(rng_.UniformInt(-5, 5));
    return Constraint(std::move(e), rng_.UniformInt(0, 1) ? ConstraintOp::kLe
                                                          : ConstraintOp::kLt);
  }

  Rng rng_;
};

/// Runs `op` on `lhs` and `rhs` three times: with the inputs' box caches
/// cold, warm, then on copies (which share the warm boxes). Every run
/// must give the same tuples; returns the first, and adds the first run's
/// counters to `cold_work` when given.
template <typename Op>
Relation SameColdWarmAndCopied(const Relation& lhs, const Relation& rhs,
                               Op op, const std::string& what,
                               obs::LayerCounters* cold_work = nullptr) {
  Result<Relation> cold = [&] {
    obs::CounterScope scope;
    Result<Relation> result = op(lhs, rhs);
    if (cold_work != nullptr) *cold_work += scope.counters();
    return result;
  }();
  EXPECT_TRUE(cold.ok()) << what << ": " << cold.status().ToString();
  if (!cold.ok()) return Relation();
  Result<Relation> warm = op(lhs, rhs);
  const Relation lhs_copy = lhs;
  const Relation rhs_copy = rhs;
  Result<Relation> copied = op(lhs_copy, rhs_copy);
  EXPECT_TRUE(warm.ok() && copied.ok()) << what;
  if (warm.ok() && copied.ok()) {
    EXPECT_TRUE(warm->tuples() == cold->tuples()) << what << " warm";
    EXPECT_TRUE(copied->tuples() == cold->tuples()) << what << " copies";
  }
  return *std::move(cold);
}

class OperatorClosureProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OperatorClosureProperty, AlgebraMatchesPointSemantics) {
  MemberGenerator gen(GetParam());
  Rng& rng = gen.rng();
  Schema schema = Schema::Make({Schema::ConstraintRational("x"),
                                Schema::ConstraintRational("y")})
                      .value();
  auto random_relation = [&]() {
    Relation rel(schema);
    int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n; ++i) {
      Tuple t;
      for (Constraint& c : gen.Members("x", "y")) {
        t.AddConstraint(std::move(c));
      }
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };
  for (int iter = 0; iter < 30; ++iter) {
    Relation r1 = random_relation();
    Relation r2 = random_relation();
    Predicate pred;
    pred.linear = gen.Members("x", "y");
    const Relation joined = SameColdWarmAndCopied(
        r1, r2, [](const Relation& a, const Relation& b) {
          return cqa::NaturalJoin(a, b);
        }, "join");
    const Relation intersected = SameColdWarmAndCopied(
        r1, r2, [](const Relation& a, const Relation& b) {
          return Intersect(a, b);
        }, "intersect");
    const Relation selected = SameColdWarmAndCopied(
        r1, r1, [&](const Relation& a, const Relation&) {
          return cqa::Select(a, pred);
        }, "select");
    auto united = cqa::Union(r1, r2);
    auto diffed = cqa::Difference(r1, r2);
    ASSERT_TRUE(united.ok() && diffed.ok());
    // Random points, plus every integer point around the boxes: box ends
    // are integers, so the grid lands exactly on shared endpoints.
    std::vector<PointRow> points;
    for (int s = 0; s < 20; ++s) {
      points.push_back(
          {{},
           {{"x", Rational(rng.UniformInt(-7, 7), rng.UniformInt(1, 2))},
            {"y", Rational(rng.UniformInt(-7, 7), rng.UniformInt(1, 2))}}});
    }
    for (int64_t x = -5; x <= 7; ++x) {
      for (int64_t y = -5; y <= 7; ++y) {
        points.push_back({{}, {{"x", Rational(x)}, {"y", Rational(y)}}});
      }
    }
    for (const PointRow& p : points) {
      bool in1 = r1.ContainsPoint(p);
      bool in2 = r2.ContainsPoint(p);
      bool in_pred = true;
      for (const Constraint& c : pred.linear) {
        in_pred = in_pred && c.IsSatisfiedBy(p.constraint);
      }
      EXPECT_EQ(joined.ContainsPoint(p), in1 && in2);
      EXPECT_EQ(intersected.ContainsPoint(p), in1 && in2);
      EXPECT_EQ(united->ContainsPoint(p), in1 || in2);
      EXPECT_EQ(diffed->ContainsPoint(p), in1 && !in2);
      EXPECT_EQ(selected.ContainsPoint(p), in1 && in_pred);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, OperatorClosureProperty,
                         ::testing::Values(101, 202, 303, 404, 505),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- CQA operators: the box test changes no output ------------------------------

/// Select with no box test: every tuple's store, conjoined with the
/// grounded predicate, goes through FM satisfiability.
std::vector<Tuple> RefineEveryTuple(const Relation& input,
                                    const Predicate& pred) {
  std::vector<Tuple> out;
  for (const Tuple& tuple : input.tuples()) {
    Conjunction store = tuple.constraints();
    bool grounded = true;
    for (const Constraint& c : pred.linear) {
      Constraint atom = c;
      for (const std::string& var : c.Variables()) {
        if (input.schema().Find(var)->kind != AttributeKind::kRelational) {
          continue;
        }
        const Value& value = tuple.GetValue(var);
        if (value.IsNull()) {
          grounded = false;
          break;
        }
        atom = atom.Substitute(var, LinearExpr::Constant(value.AsNumber()));
      }
      store.Add(std::move(atom));
    }
    if (!grounded || !fm::IsSatisfiable(store)) continue;
    Tuple kept = tuple;
    kept.SetConstraints(std::move(store));
    out.push_back(std::move(kept));
  }
  return out;
}

/// NaturalJoin with no box test: FM satisfiability on every pair whose
/// shared relational attributes match.
std::vector<Tuple> RefineEveryPair(const Relation& lhs, const Relation& rhs) {
  std::vector<Tuple> out;
  for (const Tuple& left : lhs.tuples()) {
    for (const Tuple& right : rhs.tuples()) {
      bool match = true;
      for (const Attribute& attr : lhs.schema().attributes()) {
        if (attr.kind == AttributeKind::kRelational &&
            rhs.schema().Has(attr.name) &&
            !left.GetValue(attr.name).EqualsForQuery(
                right.GetValue(attr.name))) {
          match = false;
        }
      }
      if (!match) continue;
      Conjunction store =
          Conjunction::And(left.constraints(), right.constraints());
      if (!fm::IsSatisfiable(store)) continue;
      Tuple joined;
      for (const auto& [name, value] : left.values()) {
        joined.SetValue(name, value);
      }
      for (const auto& [name, value] : right.values()) {
        joined.SetValue(name, value);
      }
      joined.SetConstraints(std::move(store));
      out.push_back(std::move(joined));
    }
  }
  return out;
}

void ExpectSameTuples(const Relation& got, const std::vector<Tuple>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got.tuples()[i] == want[i])
        << what << " tuple " << i << ": " << got.tuples()[i].ToString()
        << " vs " << want[i].ToString();
  }
}

class FilterRefineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterRefineProperty, SelectAndJoinMatchRefiningEveryTupleAndPair) {
  // k is relational (sometimes null); x, y, z are constraint attributes.
  // The join shares k and y, Intersect shares k, x and y.
  const Schema left_schema =
      Schema::Make({Schema::RelationalRational("k"),
                    Schema::ConstraintRational("x"),
                    Schema::ConstraintRational("y")})
          .value();
  const Schema right_schema =
      Schema::Make({Schema::RelationalRational("k"),
                    Schema::ConstraintRational("y"),
                    Schema::ConstraintRational("z")})
          .value();
  MemberGenerator gen(GetParam());
  Rng& rng = gen.rng();
  auto relation = [&](const Schema& schema, const std::string& a,
                      const std::string& b) {
    Relation rel(schema);
    for (int i = 0, n = static_cast<int>(rng.UniformInt(1, 8)); i < n; ++i) {
      Tuple t;
      if (rng.UniformInt(0, 5) != 0) {
        t.SetValue("k", Value::Number(Rational(rng.UniformInt(0, 1))));
      }
      for (Constraint& c : gen.Members(a, b)) t.AddConstraint(std::move(c));
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };

  obs::LayerCounters work;
  for (int iter = 0; iter < 30; ++iter) {
    Relation lhs = relation(left_schema, "x", "y");
    Relation other = relation(left_schema, "x", "y");
    Relation rhs = relation(right_schema, "y", "z");
    Predicate pred;
    pred.linear = gen.Members("x", "y");
    if (rng.UniformInt(0, 3) == 0) {
      pred.linear.push_back(Constraint::Le(V("x"), V("k")));  // grounded
    }

    ExpectSameTuples(SameColdWarmAndCopied(
                         lhs, lhs,
                         [&](const Relation& a, const Relation&) {
                           return cqa::Select(a, pred);
                         },
                         "select", &work),
                     RefineEveryTuple(lhs, pred), "select " + pred.ToString());
    ExpectSameTuples(SameColdWarmAndCopied(
                         lhs, rhs,
                         [](const Relation& a, const Relation& b) {
                           return cqa::NaturalJoin(a, b);
                         },
                         "join", &work),
                     RefineEveryPair(lhs, rhs), "join");
    ExpectSameTuples(SameColdWarmAndCopied(
                         lhs, other,
                         [](const Relation& a, const Relation& b) {
                           return Intersect(a, b);
                         },
                         "intersect", &work),
                     RefineEveryPair(lhs, other), "intersect");
  }
  // The sweep exercised both sides: pruned and refined tuples and pairs,
  // counted on the cold runs only.
  EXPECT_GT(work.box_prunes, 20u);
  EXPECT_GT(work.conjunctions, 20u);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, FilterRefineProperty,
                         ::testing::Values(101, 202, 303, 404, 505),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Geometry: conversion round-trips over polygon families ----------------------

class ConvexRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvexRoundTripProperty, RingThroughConstraintsAndBack) {
  const int sides = GetParam();
  // A convex polygon on a circle of radius 100 with exact rational-ish
  // vertices (rounded to integers, deduplicated by construction).
  std::vector<geom::Point> ring;
  for (int i = 0; i < sides; ++i) {
    double angle = 2.0 * 3.14159265358979 * i / sides;
    int64_t x = static_cast<int64_t>(100.0 * std::cos(angle) * 100);
    int64_t y = static_cast<int64_t>(100.0 * std::sin(angle) * 100);
    ring.emplace_back(x, y);
  }
  auto hull = geom::ConvexHull(ring);
  ASSERT_GE(hull.size(), 3u);
  auto polygon = geom::Polygon::Make(hull);
  ASSERT_TRUE(polygon.ok()) << polygon.status().ToString();

  Conjunction c = geom::ConvexRingToConjunction(polygon->vertices(), "x", "y");
  auto back = geom::ConjunctionToRegion(c, "x", "y");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->kind(), geom::ConvexRegion::Kind::kPolygon);
  EXPECT_EQ(back->polygon().Area(), polygon->Area());
  EXPECT_EQ(back->polygon().size(), polygon->size());
}

INSTANTIATE_TEST_SUITE_P(SideCounts, ConvexRoundTripProperty,
                         ::testing::Values(3, 4, 5, 6, 8, 12, 20),
                         [](const auto& info) {
                           return "sides" + std::to_string(info.param);
                         });

// --- Storage: serialization fuzz over record shapes -------------------------------

class SerdeFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

/// Integers on both sides of each width the codec or BigInt switches at:
/// ±(2^62 − 1), ±2^62, ±2^63 and ±10^30.
std::vector<BigInt> BoundaryIntegers() {
  const BigInt two62 = BigInt::Pow(BigInt(2), 62);
  const BigInt two63 = BigInt::Pow(BigInt(2), 63);
  const BigInt ten30 = BigInt::Pow(BigInt(10), 30);
  std::vector<BigInt> out;
  for (const BigInt& v : {two62 - BigInt(1), two62, two63, ten30}) {
    out.push_back(v);
    out.push_back(-v);
  }
  return out;
}

TEST_P(SerdeFuzzProperty, RandomTuplesRoundTrip) {
  Rng rng(GetParam());
  const std::vector<BigInt> boundary = BoundaryIntegers();
  auto pick_boundary = [&]() -> const BigInt& {
    return boundary[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(boundary.size()) - 1))];
  };
  for (int iter = 0; iter < 100; ++iter) {
    Tuple t;
    int values = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < values; ++i) {
      std::string name = "a" + std::to_string(i);
      switch (rng.UniformInt(0, 2)) {
        case 0: {
          std::string s;
          int len = static_cast<int>(rng.UniformInt(0, 20));
          for (int k = 0; k < len; ++k) {
            s += static_cast<char>(rng.UniformInt(32, 126));
          }
          t.SetValue(name, Value::String(s));
          break;
        }
        case 1:
          t.SetValue(name, Value::Number(Rational(rng.UniformInt(-1000, 1000),
                                                  rng.UniformInt(1, 999))));
          break;
        default:
          // A boundary numerator over a boundary or small denominator.
          t.SetValue(name, Value::Number(Rational(
                               pick_boundary(),
                               rng.UniformInt(0, 1)
                                   ? pick_boundary().Abs()
                                   : BigInt(rng.UniformInt(1, 999)))));
          break;
      }
    }
    int constraints = static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < constraints; ++i) {
      LinearExpr e;
      if (rng.UniformInt(0, 2) == 0) {
        // Boundary coefficient and constant beside a unit y term, so the
        // canonical gcd stays 1 and the boundaries reach the codec.
        e = V("x") * Rational(pick_boundary()) +
            V("y") * Rational(rng.UniformInt(0, 1) ? 1 : -1) +
            LinearExpr::Constant(Rational(pick_boundary()));
      } else {
        e = V("x") * Rational(rng.UniformInt(-9, 9), rng.UniformInt(1, 9)) +
            V("y") * Rational(rng.UniformInt(-9, 9)) +
            C(rng.UniformInt(-100, 100));
      }
      int op = static_cast<int>(rng.UniformInt(0, 3));
      if (op == 3 && !e.IsConstant() && e.terms().begin()->second.Sign() > 0) {
        // An equality built with a negative leading coefficient, which
        // canonicalization flips before the store holds it.
        e = -e;
      }
      t.AddConstraint(Constraint(std::move(e), op == 0   ? ConstraintOp::kLe
                                               : op == 1 ? ConstraintOp::kLt
                                                         : ConstraintOp::kEq));
    }
    auto back = DeserializeTuple(SerializeTuple(t));
    ASSERT_TRUE(back.ok()) << back.status().ToString() << " " << t.ToString();
    EXPECT_EQ(*back, t);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, SerdeFuzzProperty,
                         ::testing::Values(9001, 9002, 9003, 9004),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Truncation fuzz: corrupt records must fail cleanly, never crash -------------

class SerdeTruncationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeTruncationProperty, TruncatedAndCorruptedRecordsFailCleanly) {
  Rng rng(GetParam());
  Tuple t;
  t.SetValue("name", Value::String("truncate-me"));
  t.AddConstraint(Constraint::Le(V("x") + V("y"), C(10)));
  auto bytes = SerializeTuple(t);
  // Every strict prefix fails: a record must end where its bytes do.
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_EQ(DeserializeTuple(prefix).status().code(), StatusCode::kIoError)
        << "prefix of " << len << " bytes";
  }
  // Random single-byte corruptions.
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> corrupt = bytes;
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corrupt.size()) - 1));
    corrupt[pos] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
    auto result = DeserializeTuple(corrupt);  // must not crash
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, SerdeTruncationProperty,
                         ::testing::Values(31, 32),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Step scripts: the optimized plan against step-at-a-time execution ---------

/// The reference semantics of one statement: compiled alone, executed
/// unoptimized against the catalog overlaid with the earlier results
/// (`db`), and its result registered under its name. `product` and
/// `intersect` run through the reference's own helpers instead, so the
/// compiler must reproduce their schema checks.
Status RunStep(const std::string& statement, Database* db,
               std::string* step) {
  std::istringstream words(statement);
  std::string name, eq, op, lhs, and_keyword, rhs;
  words >> name >> eq >> op >> lhs >> and_keyword >> rhs;
  auto run = [&]() -> Result<Relation> {
    if (op == "product" || op == "intersect") {
      CCDB_ASSIGN_OR_RETURN(const Relation* a, db->Get(lhs));
      CCDB_ASSIGN_OR_RETURN(const Relation* b, db->Get(rhs));
      return op == "product" ? CrossProduct(*a, *b) : Intersect(*a, *b);
    }
    CCDB_ASSIGN_OR_RETURN(lang::CompiledScript one,
                          lang::CompileScript(statement, *db));
    return cqa::Execute(*one.plan, *db);
  };
  CCDB_ASSIGN_OR_RETURN(Relation rel, run());
  db->CreateOrReplace(name, std::move(rel));
  *step = name;
  return Status::OK();
}

/// hurricane.cdb plus two small relations of random boxes over x and y.
Database ScriptCatalog(MemberGenerator* gen) {
  Database db;
  EXPECT_TRUE(lang::LoadDatabaseFile(
                  std::string(CCDB_DATA_DIR) + "/hurricane/hurricane.cdb", &db)
                  .ok());
  const Schema xy = Schema::Make({Schema::ConstraintRational("x"),
                                  Schema::ConstraintRational("y")})
                        .value();
  for (const char* name : {"A", "B"}) {
    Relation rel(xy);
    for (int i = 0; i < 4; ++i) {
      Tuple t;
      for (Constraint& c : gen->Members("x", "y")) t.AddConstraint(c);
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    EXPECT_TRUE(db.Create(name, std::move(rel)).ok());
  }
  return db;
}

/// One random statement over `db` (the catalog plus the script's steps so
/// far, `steps`). Operands are earlier steps three times in four and step
/// names come from R0..R2, so steps are read 0-3 times and redefined.
/// Every statement form appears, selections and joins (the rewrites'
/// targets) most often; some draws are ill-typed on purpose. With
/// `spelled`, a rational selection writes its coefficient and bounds as
/// numbers and fractions, touching or spaced (`3/2`, `3 / 2`, `2x`, `2 x`,
/// `2 * x`), so some draws are parse errors.
std::string RandomStatement(Rng& rng, const Database& db,
                            const std::vector<std::string>& steps,
                            bool spelled = false) {
  static const char* const kCatalog[] = {"A", "B", "Land", "Landownership",
                                         "Hurricane"};
  static const char* const kFeatures[] = {"LandFeatures", "HurricanePath"};
  auto pick = [&rng](const auto& names) {
    return std::string(names[rng.UniformInt(0, std::size(names) - 1)]);
  };
  auto operand = [&]() {
    return !steps.empty() && rng.UniformInt(0, 3) > 0 ? pick(steps)
                                                       : pick(kCatalog);
  };
  const std::string lhs = operand();
  const Schema& schema = db.Get(lhs).value()->schema();
  const std::vector<std::string> attrs = schema.Names();
  const std::string attr = pick(attrs);
  // An operand of the same schema (union, minus), an earlier step three
  // times in four when one has it.
  auto same_schema = [&]() {
    std::vector<std::string> names, step_names;
    for (const std::string& name : db.Names()) {
      if (db.Get(name).value()->schema() != schema) continue;
      names.push_back(name);
      if (std::count(steps.begin(), steps.end(), name)) {
        step_names.push_back(name);
      }
    }
    return !step_names.empty() && rng.UniformInt(0, 3) > 0 ? pick(step_names)
                                                           : pick(names);
  };
  // Forms 0-10 in the order below, with select, join and union drawn
  // more often.
  static const int kForms[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 2, 5};
  std::string body;
  switch (kForms[rng.UniformInt(0, std::size(kForms) - 1)]) {
    case 0:
      if (schema.Find(attr)->domain == AttributeDomain::kString) {
        // A value some tuple holds, so the selection is rarely empty.
        const std::vector<Tuple>& tuples = db.Get(lhs).value()->tuples();
        const Value value =
            tuples.empty()
                ? Value::Null()
                : tuples[rng.UniformInt(0, tuples.size() - 1)].GetValue(attr);
        body = "select " + attr + " = \"" +
               (value.IsNull() ? "A" : value.AsString()) + "\" from " + lhs;
      } else if (!spelled) {
        const int64_t lo = rng.UniformInt(-2, 4);
        body = "select " + attr + " >= " + std::to_string(lo) + ", " + attr +
               " <= " + std::to_string(lo + rng.UniformInt(1, 4)) + " from " +
               lhs;
      } else {
        static const char* const kSlash[] = {"/", " / ", "/ ", " /"};
        static const char* const kTimes[] = {"", " ", " * "};
        auto fraction = [&](int64_t numerator) {
          return std::to_string(numerator) + (rng.UniformInt(0, 1) == 0
                                                  ? std::string()
                                                  : pick(kSlash) + "2");
        };
        // Each draw in its own statement, so the order of draws is fixed.
        const int64_t lo = rng.UniformInt(-4, 8);
        const int64_t hi = lo + rng.UniformInt(1, 8);
        std::string term = fraction(rng.UniformInt(1, 3));
        term += pick(kTimes) + attr;
        const std::string lower = fraction(lo);
        const std::string upper = fraction(hi);
        body = "select " + term + " >= " + lower + ", " + attr + " <= " +
               upper + " from " + lhs;
      }
      break;
    case 1: {
      std::string kept;
      for (const std::string& name : attrs) {
        if (name == attr || rng.UniformInt(0, 1) == 0) {
          kept += (kept.empty() ? "" : ", ") + name;
        }
      }
      body = "project " + lhs + " on " + kept;
      break;
    }
    case 2:
      body = "join " + lhs + " and " + operand();
      break;
    case 3:
      body = "product " + lhs + " and " + operand();
      break;
    case 4:
      body = "intersect " + lhs + " and " +
             (rng.UniformInt(0, 1) ? same_schema() : operand());
      break;
    case 5:
      body = "union " + lhs + " and " + same_schema();
      break;
    case 6:
      body = "minus " + lhs + " and " + same_schema();
      break;
    case 7:
      body = "rename " + attr + " to u" +
             std::to_string(rng.UniformInt(0, 1)) + " in " + lhs;
      break;
    case 8:
      body = "normalize " + lhs;
      break;
    case 9:
      body = "buffer-join " + pick(kFeatures) + " and " + pick(kFeatures) +
             " within " + std::to_string(rng.UniformInt(0, 2)) + "/2";
      break;
    default:
      body = "k-nearest " + pick(kFeatures) + " and " + pick(kFeatures) +
             " k " + std::to_string(rng.UniformInt(0, 3));
      break;
  }
  return "R" + std::to_string(rng.UniformInt(0, 2)) + " = " + body;
}

/// Random points over `schema`: relational values drawn from those the
/// relations hold (plus one neither holds), rationals on a half grid.
std::vector<PointRow> SamplePoints(Rng& rng, const Schema& schema,
                                   const Relation& a, const Relation& b) {
  std::map<std::string, std::vector<Value>> domain;
  for (const Attribute& attr : schema.attributes()) {
    if (attr.kind != AttributeKind::kRelational) continue;
    std::set<std::string> seen{"zz"};
    for (const Relation* rel : {&a, &b}) {
      for (const Tuple& t : rel->tuples()) {
        const Value& v = t.GetValue(attr.name);
        if (!v.IsNull()) seen.insert(v.ToString());
      }
    }
    for (const std::string& v : seen) {
      domain[attr.name].push_back(attr.domain == AttributeDomain::kString
                                      ? Value::String(v)
                                      : Value::Number(Rational(std::stoll(v))));
    }
  }
  std::vector<PointRow> points(80);
  for (PointRow& p : points) {
    for (const Attribute& attr : schema.attributes()) {
      if (attr.kind == AttributeKind::kRelational) {
        const auto& values = domain[attr.name];
        p.relational[attr.name] =
            values[rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1)];
      } else {
        p.constraint[attr.name] =
            Rational(rng.UniformInt(-12, 22), rng.UniformInt(1, 2));
      }
    }
  }
  return points;
}

class ScriptPlanProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScriptPlanProperty, OptimizedPlanMatchesStepAtATime) {
  MemberGenerator gen(GetParam());
  Rng& rng = gen.rng();
  const Database catalog = ScriptCatalog(&gen);
  for (int iter = 0; iter < 200; ++iter) {
    // Generate and run the reference statement by statement, stopping at
    // the first statement the reference rejects.
    Database reference = catalog;
    std::vector<std::string> steps;
    std::string script, last;
    Status expected = Status::OK();
    const int64_t length = rng.UniformInt(2, 6);
    for (int64_t i = 0; i < length && expected.ok(); ++i) {
      const std::string statement = RandomStatement(rng, reference, steps);
      script += statement + "\n";
      expected = RunStep(statement, &reference, &last);
      if (expected.ok()) steps.push_back(last);
    }

    Database served = catalog;
    Result<Relation> got = lang::RunQuery(script, &served);
    SCOPED_TRACE(script);
    if (!expected.ok()) {
      ASSERT_FALSE(got.ok()) << "reference failed: " << expected.ToString();
      EXPECT_EQ(got.status().code(), expected.code())
          << got.status().ToString() << " vs " << expected.ToString();
      continue;
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const Relation& want = *reference.Get(last).value();
    ASSERT_EQ(got->schema(), want.schema());
    for (const PointRow& p : SamplePoints(rng, want.schema(), want, *got)) {
      EXPECT_EQ(got->ContainsPoint(p), want.ContainsPoint(p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ScriptPlanProperty,
                         ::testing::Values(61, 62, 63, 64, 65),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- The result-cache key's canonical text parses like its script ------------

class CanonicalTextProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalTextProperty, CompilesToTheScriptsPlan) {
  MemberGenerator gen(GetParam());
  Rng& rng = gen.rng();
  const Database catalog = ScriptCatalog(&gen);
  int parsed = 0, failed = 0;
  for (int iter = 0; iter < 200; ++iter) {
    // Statements run one at a time, so later ones draw operands from the
    // steps' real schemas; the script ends at its first failing statement.
    Database reference = catalog;
    std::vector<std::string> steps;
    std::string script;
    Result<std::string> step = std::string();
    const int64_t length = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < length && step.ok(); ++i) {
      const std::string statement =
          RandomStatement(rng, reference, steps, /*spelled=*/true);
      script += statement + "\n";
      step = lang::ExecuteScript(statement, &reference);
      if (step.ok()) steps.push_back(*step);
    }

    SCOPED_TRACE(script);
    Result<std::string> canonical = lang::CanonicalizeScript(script);
    ASSERT_TRUE(canonical.ok()) << canonical.status().ToString();
    Result<lang::CompiledScript> want = lang::CompileScript(script, catalog);
    Result<lang::CompiledScript> got = lang::CompileScript(*canonical, catalog);
    if (!want.ok()) {
      ++failed;
      ASSERT_FALSE(got.ok()) << "canonical text compiled: " << *canonical;
      EXPECT_EQ(got.status().code(), want.status().code())
          << got.status().ToString() << " vs " << want.status().ToString();
      continue;
    }
    ++parsed;
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << *canonical;
    EXPECT_EQ(got->plan->ToString(), want->plan->ToString());
  }
  // The sweep both compiled and rejected many scripts.
  EXPECT_GT(parsed, 20);
  EXPECT_GT(failed, 20);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, CanonicalTextProperty,
                         ::testing::Values(71, 72, 73),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(ScriptPlanCounterTest, SharedStepBuildsExactlyTheReferenceConjunctions) {
  // R0 is read three times; as one shared subplan it runs once, so the
  // plan does exactly the step-at-a-time work.
  WorkloadParams params;
  params.data_count = 30;
  Database catalog;
  ASSERT_TRUE(catalog
                  .Create("Boxes", BoxesToConstraintRelation(
                                       GenerateDataBoxes(5, params)))
                  .ok());
  const std::string lines[] = {"R0 = select x >= 100, x <= 1500 from Boxes",
                               "R1 = union R0 and R0",
                               "R2 = minus R1 and R0"};
  Database reference = catalog;
  uint64_t want = 0;
  {
    obs::CounterScope scope;
    std::string step;
    for (const std::string& line : lines) {
      ASSERT_TRUE(RunStep(line, &reference, &step).ok());
    }
    want = scope.counters().conjunctions;
  }
  Database served = catalog;
  uint64_t got = 0;
  {
    obs::CounterScope scope;
    ASSERT_TRUE(lang::ExecuteScript(lines[0] + "\n" + lines[1] + "\n" +
                                        lines[2],
                                    &served)
                    .ok());
    got = scope.counters().conjunctions;
  }
  EXPECT_GT(want, 0u);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ccdb
