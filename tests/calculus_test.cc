#include "core/calculus.h"

#include <algorithm>
#include <chrono>

#include <gtest/gtest.h>

#include "lang/data_parser.h"
#include "lang/query.h"
#include "obs/governance.h"
#include "util/random.h"

namespace ccdb::cqc {
namespace {

LinearExpr V(const std::string& n) { return LinearExpr::Variable(n); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

class CalculusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Status s = lang::LoadDatabaseFile(
        std::string(CCDB_DATA_DIR) + "/hurricane/hurricane.cdb", &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  Database db_;
};

TEST_F(CalculusTest, PureAtomIsAnInfiniteRelation) {
  // The CDB framework's core move: `x + y <= 2` alone is a relation.
  auto rel = Evaluate(*Formula::Atom(Constraint::Le(V("x") + V("y"), C(2))),
                      db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->ContainsPoint({{}, {{"x", Rational(1)}, {"y", Rational(1)}}}));
  EXPECT_FALSE(rel->ContainsPoint({{}, {{"x", Rational(2)}, {"y", Rational(1)}}}));
}

TEST_F(CalculusTest, RelationAtomBindsPositionally) {
  // Hurricane(when, ex, wy): attributes renamed to the formula's variables.
  auto rel = Evaluate(*Formula::Rel("Hurricane", {"when", "ex", "wy"}), db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->schema().Has("when"));
  EXPECT_TRUE(rel->schema().Has("ex"));
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->ContainsPoint(
      {{}, {{"when", Rational(4)}, {"ex", Rational(1)},
            {"wy", Rational(3, 2)}}}));
}

TEST_F(CalculusTest, RelationAtomArityChecked) {
  EXPECT_FALSE(Evaluate(*Formula::Rel("Hurricane", {"t"}), db_).ok());
  EXPECT_FALSE(Evaluate(*Formula::Rel("NoSuch", {"a"}), db_).ok());
}

TEST_F(CalculusTest, RepeatedVariableMeansEquality) {
  // Hurricane(t, v, v): positions where the hurricane's x equals its y —
  // segment 2 is y = x for x in [2, 4].
  auto rel = Evaluate(*Formula::Rel("Hurricane", {"t", "v", "v"}), db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->ContainsPoint(
      {{}, {{"t", Rational(6)}, {"v", Rational(8, 3)}}}));
  EXPECT_FALSE(rel->ContainsPoint(
      {{}, {{"t", Rational(4)}, {"v", Rational(1)}}}))
      << "at t=4 the hurricane is at (1, 3/2): x != y";
}

TEST_F(CalculusTest, PaperQuery2AsCalculus) {
  // "all landIds the hurricane passed":
  //   { id | ∃t ∃x ∃y. Hurricane(t, x, y) AND Land(id, x, y) }
  FormulaPtr body = Formula::And(Formula::Rel("Hurricane", {"t", "x", "y"}),
                                 Formula::Rel("Land", {"id", "x", "y"}));
  FormulaPtr query = Formula::ExistsAll({"t", "x", "y"}, body);
  auto rel = Evaluate(*query, db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  std::set<std::string> ids;
  for (const Tuple& t : rel->tuples()) {
    ids.insert(t.GetValue("id").AsString());
  }
  EXPECT_EQ(ids, (std::set<std::string>{"A", "B", "C", "D"}));
}

TEST_F(CalculusTest, PaperQuery3AsCalculus) {
  // "names of those whose land was hit between t=4 and t=9":
  //   { n | ∃t ∃x ∃y ∃id. Owns(n, t, id) AND Land(id, x, y) AND
  //                        Hurricane(t, x, y) AND 4 <= t AND t <= 9 }
  FormulaPtr body = Formula::And(
      Formula::And(Formula::Rel("Landownership", {"n", "t", "id"}),
                   Formula::Rel("Land", {"id", "x", "y"})),
      Formula::And(
          Formula::Rel("Hurricane", {"t", "x", "y"}),
          Formula::And(Formula::Atom(Constraint::Ge(V("t"), C(4))),
                       Formula::Atom(Constraint::Le(V("t"), C(9))))));
  auto rel = Evaluate(*Formula::ExistsAll({"t", "x", "y", "id"}, body), db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  std::set<std::string> names;
  for (const Tuple& t : rel->tuples()) {
    names.insert(t.GetValue("n").AsString());
  }
  EXPECT_EQ(names,
            (std::set<std::string>{"Smith", "Jones", "Brown", "Davis"}));
}

TEST_F(CalculusTest, StringAtomsBindOrMaterialize) {
  // Bound: Owns(n, t, id) AND id = "A".
  FormulaPtr bound = Formula::And(
      Formula::Rel("Landownership", {"n", "t", "id"}),
      Formula::StrAtom(StringAtom::EqualsLiteral("id", "A")));
  auto rel = Evaluate(*Formula::ExistsAll({"t", "id"}, bound), db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 2u);  // Smith and Jones

  // Unbound positive literal materializes a singleton.
  auto singleton = Evaluate(
      *Formula::StrAtom(StringAtom::EqualsLiteral("who", "Ada")), db_);
  ASSERT_TRUE(singleton.ok());
  EXPECT_EQ(singleton->size(), 1u);
  EXPECT_EQ(singleton->tuples()[0].GetValue("who").AsString(), "Ada");

  // Unbound negated literal is unsafe.
  auto unsafe = Evaluate(
      *Formula::StrAtom(StringAtom::NotEqualsLiteral("who", "Ada")), db_);
  EXPECT_FALSE(unsafe.ok());
  EXPECT_EQ(unsafe.status().code(), StatusCode::kUnsupported);
}

TEST_F(CalculusTest, OrPadsMissingVariablesBroadly) {
  // x < 1 OR y < 1 over {x, y}: CDB broad semantics on the absent side.
  FormulaPtr f = Formula::Or(Formula::Atom(Constraint::Lt(V("x"), C(1))),
                             Formula::Atom(Constraint::Lt(V("y"), C(1))));
  auto rel = Evaluate(*f, db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->ContainsPoint({{}, {{"x", Rational(0)}, {"y", Rational(9)}}}));
  EXPECT_TRUE(rel->ContainsPoint({{}, {{"x", Rational(9)}, {"y", Rational(0)}}}));
  EXPECT_FALSE(rel->ContainsPoint({{}, {{"x", Rational(9)}, {"y", Rational(9)}}}));
}

TEST_F(CalculusTest, NegationClosedForConstraintVariables) {
  // NOT (0 <= x AND x <= 1): the complement of an interval.
  FormulaPtr inner = Formula::And(Formula::Atom(Constraint::Ge(V("x"), C(0))),
                                  Formula::Atom(Constraint::Le(V("x"), C(1))));
  auto rel = Evaluate(*Formula::Not(inner), db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->ContainsPoint({{}, {{"x", Rational(-1)}}}));
  EXPECT_TRUE(rel->ContainsPoint({{}, {{"x", Rational(2)}}}));
  EXPECT_FALSE(rel->ContainsPoint({{}, {{"x", Rational(1, 2)}}}));
  EXPECT_FALSE(rel->ContainsPoint({{}, {{"x", Rational(0)}}}));
  EXPECT_FALSE(rel->ContainsPoint({{}, {{"x", Rational(1)}}}));
}

TEST_F(CalculusTest, NegationOverRelationalVariablesRejected) {
  auto rel = Evaluate(*Formula::Not(Formula::Rel("Land", {"id", "x", "y"})),
                      db_);
  EXPECT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kUnsupported);
}

TEST_F(CalculusTest, DoubleNegationRoundTrips) {
  FormulaPtr interval =
      Formula::And(Formula::Atom(Constraint::Ge(V("x"), C(0))),
                   Formula::Atom(Constraint::Le(V("x"), C(1))));
  auto twice = Evaluate(*Formula::Not(Formula::Not(interval)), db_);
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  auto once = Evaluate(*interval, db_);
  ASSERT_TRUE(once.ok());
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    Rational x(rng.UniformInt(-20, 20), rng.UniformInt(1, 4));
    PointRow p{{}, {{"x", x}}};
    EXPECT_EQ(once->ContainsPoint(p), twice->ContainsPoint(p))
        << x.ToString();
  }
}

TEST_F(CalculusTest, ExistsOverOnlyVariableYieldsBoolean) {
  // ∃x. (x >= 0 AND x <= 1) — the zero-ary TRUE relation.
  FormulaPtr sat = Formula::Exists(
      "x", Formula::And(Formula::Atom(Constraint::Ge(V("x"), C(0))),
                        Formula::Atom(Constraint::Le(V("x"), C(1)))));
  auto truth = Evaluate(*sat, db_);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(truth->schema().arity(), 0u);
  EXPECT_EQ(truth->size(), 1u) << "TRUE = one empty tuple";

  // ∃x. (x >= 1 AND x <= 0) — FALSE: empty zero-ary relation.
  FormulaPtr unsat = Formula::Exists(
      "x", Formula::And(Formula::Atom(Constraint::Ge(V("x"), C(1))),
                        Formula::Atom(Constraint::Le(V("x"), C(0)))));
  auto falsity = Evaluate(*unsat, db_);
  ASSERT_TRUE(falsity.ok());
  EXPECT_EQ(falsity->size(), 0u);
}

TEST_F(CalculusTest, ToStringRendersFormula) {
  FormulaPtr f = Formula::Exists(
      "t", Formula::And(Formula::Rel("Hurricane", {"t", "x", "y"}),
                        Formula::Atom(Constraint::Ge(V("t"), C(4)))));
  std::string text = f->ToString();
  EXPECT_NE(text.find("EXISTS t."), std::string::npos);
  EXPECT_NE(text.find("Hurricane(t, x, y)"), std::string::npos);
  EXPECT_NE(text.find("AND"), std::string::npos);
  EXPECT_EQ(f->FreeVariables(), (std::set<std::string>{"x", "y"}));
}

// The paper's equivalence claim, sampled: a calculus query and its
// hand-translated algebra query produce the same point sets.
TEST_F(CalculusTest, CalculusMatchesAlgebraOnHurricaneQueries) {
  // Calculus: ∃x ∃y. Hurricane(t, x, y) AND Land(id, x, y) — keep (t, id).
  FormulaPtr calculus = Formula::ExistsAll(
      {"x", "y"},
      Formula::And(Formula::Rel("Hurricane", {"t", "x", "y"}),
                   Formula::Rel("Land", {"id", "x", "y"})));
  auto via_cqc = Evaluate(*calculus, db_);
  ASSERT_TRUE(via_cqc.ok()) << via_cqc.status().ToString();

  // Algebra, via the step language (same variable names by renaming).
  auto via_cqa = lang::RunQuery(
      "R0 = join Hurricane and Land\n"
      "R1 = project R0 on t, landId\n"
      "R2 = rename landId to id in R1\n",
      &db_);
  ASSERT_TRUE(via_cqa.ok()) << via_cqa.status().ToString();

  const char* ids[] = {"A", "B", "C", "D"};
  for (const char* id : ids) {
    for (int numerator = 0; numerator <= 20; ++numerator) {
      Rational t(numerator, 2);
      PointRow p{{{"id", Value::String(id)}}, {{"t", t}}};
      EXPECT_EQ(via_cqc->ContainsPoint(p), via_cqa->ContainsPoint(p))
          << id << " at t=" << t.ToString();
    }
  }
}

/// The labels from `plan` down to the leaf labelled `leaf` (empty if none).
std::vector<std::string> PathTo(const cqa::PlanNode& plan,
                                const std::string& leaf) {
  if (plan.Label() == leaf) return {leaf};
  for (const auto& child : plan.children) {
    std::vector<std::string> path = PathTo(*child, leaf);
    if (!path.empty()) {
      path.insert(path.begin(), plan.Label());
      return path;
    }
  }
  return {};
}

TEST_F(CalculusTest, OptimizerMovesQuery3TimeWindowBelowTheJoin) {
  // ∃x ∃y ∃t. Hurricane(t, x, y) AND Land(id, x, y) AND 4 <= t AND t <= 9:
  // compiled, the window selects the join's output; optimized, it selects
  // the Hurricane scan, below the join.
  FormulaPtr body = Formula::And(
      Formula::And(Formula::Rel("Hurricane", {"t", "x", "y"}),
                   Formula::Rel("Land", {"id", "x", "y"})),
      Formula::And(Formula::Atom(Constraint::Ge(V("t"), C(4))),
                   Formula::Atom(Constraint::Le(V("t"), C(9)))));
  auto plan = Compile(*Formula::ExistsAll({"x", "y", "t"}, body), db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string window = "Select [-t <= -4, t <= 9]";
  auto index_of = [](const std::vector<std::string>& path,
                     const std::string& label) {
    return std::find(path.begin(), path.end(), label) - path.begin();
  };

  std::vector<std::string> compiled = PathTo(**plan, "Scan Hurricane");
  ASSERT_FALSE(compiled.empty()) << (*plan)->ToString();
  EXPECT_LT(index_of(compiled, window), index_of(compiled, "Join"))
      << (*plan)->ToString();

  std::unique_ptr<cqa::PlanNode> optimized =
      cqa::Optimize(std::move(*plan), db_);
  std::vector<std::string> path = PathTo(*optimized, "Scan Hurricane");
  ASSERT_GE(path.size(), 2u) << optimized->ToString();
  EXPECT_EQ(path[path.size() - 2], window) << optimized->ToString();
  EXPECT_LT(index_of(path, "Join"), index_of(path, window))
      << optimized->ToString();
}

TEST_F(CalculusTest, IdentityAtomsCompileToTheBareScan) {
  // Query 3's Hurricane(t, x, y) names Hurricane's own attributes in
  // order, so nothing on the path from the root to its scan renames.
  FormulaPtr body = Formula::And(
      Formula::And(Formula::Rel("Landownership", {"n", "t", "id"}),
                   Formula::Rel("Land", {"id", "x", "y"})),
      Formula::And(
          Formula::Rel("Hurricane", {"t", "x", "y"}),
          Formula::And(Formula::Atom(Constraint::Ge(V("t"), C(4))),
                       Formula::Atom(Constraint::Le(V("t"), C(9))))));
  auto plan = Compile(*Formula::ExistsAll({"t", "x", "y", "id"}, body), db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<std::string> path = PathTo(**plan, "Scan Hurricane");
  ASSERT_FALSE(path.empty()) << (*plan)->ToString();
  for (const std::string& label : path) {
    EXPECT_NE(label.rfind("Rename", 0), 0u) << (*plan)->ToString();
  }

  // Other names, or the same names out of order, still rename.
  for (const std::vector<std::string>& vars :
       {std::vector<std::string>{"when", "x", "y"},
        std::vector<std::string>{"t", "y", "x"}}) {
    auto renamed = Compile(*Formula::Rel("Hurricane", vars), db_);
    ASSERT_TRUE(renamed.ok()) << renamed.status().ToString();
    EXPECT_EQ((*renamed)->Label().rfind("Rename", 0), 0u)
        << (*renamed)->ToString();
  }
}

TEST_F(CalculusTest, GovernedEvaluateReturnsTheTripStatus) {
  // A context that trips at its first check: the optimizer stops
  // rewriting and the executor's first check-point reports the trip.
  obs::GovernanceLimits limits;
  limits.trip_at_check = 1;
  limits.check_stride = 1;
  obs::ExecContext ctx(limits, std::chrono::steady_clock::now());
  obs::ExecContextScope scope(&ctx);
  auto rel = Evaluate(*Formula::Rel("Hurricane", {"t", "x", "y"}), db_);
  ASSERT_FALSE(rel.ok()) << "no relation under a tripped context";
  EXPECT_EQ(rel.status().code(), StatusCode::kCancelled);
}

// --- The calculus against a direct point oracle ------------------------------

// Constraint variables x, y (and z); string variables s and u. "r" is a word
// no stored row holds.
const std::vector<std::string> kNumbers = {"x", "y", "z"};
const std::vector<std::string> kStrings = {"s", "u"};
const std::vector<std::string> kWords = {"p", "q", "r"};

bool IsString(const std::string& var) {
  return std::count(kStrings.begin(), kStrings.end(), var) > 0;
}

/// R(k, m, a, b) with two string and two constraint attributes, and the
/// constraint-only T(a, b): a few random rows each, boxes with an
/// occasional diagonal member, and some of R's strings null.
Database RandomCatalog(Rng& rng) {
  const Schema r = Schema::Make({Schema::RelationalString("k"),
                                 Schema::RelationalString("m"),
                                 Schema::ConstraintRational("a"),
                                 Schema::ConstraintRational("b")})
                       .value();
  const Schema t = Schema::Make({Schema::ConstraintRational("a"),
                                 Schema::ConstraintRational("b")})
                       .value();
  auto rows = [&](const Schema& schema, int64_t most) {
    Relation rel(schema);
    for (int64_t n = rng.UniformInt(1, most); n > 0; --n) {
      Tuple row;
      for (const Attribute& attr : schema.attributes()) {
        if (attr.kind == AttributeKind::kRelational) {
          if (rng.UniformInt(0, 5) != 0) {
            row.SetValue(attr.name,
                         Value::String(kWords[rng.UniformInt(0, 1)]));
          }
          continue;
        }
        const int64_t lo = rng.UniformInt(-3, 2);
        row.AddConstraint(Constraint::Ge(V(attr.name), C(lo)));
        row.AddConstraint(
            Constraint::Le(V(attr.name), C(lo + rng.UniformInt(0, 3))));
      }
      if (rng.UniformInt(0, 2) == 0) {
        row.AddConstraint(
            Constraint::Le(V("a") + V("b"), C(rng.UniformInt(-2, 3))));
      }
      EXPECT_TRUE(rel.Insert(std::move(row)).ok());
    }
    return rel;
  };
  Database db;
  EXPECT_TRUE(db.Create("R", rows(r, 4)).ok());
  EXPECT_TRUE(db.Create("T", rows(t, 2)).ok());
  return db;
}

/// Random EXISTS-free formulas over R and T.
class FormulaGenerator {
 public:
  FormulaGenerator(Rng* rng, int64_t numbers) : rng_(*rng), numbers_(numbers) {}

  /// At most `depth` connectives deep. Without `strings` the formula has
  /// constraint variables only, so it may be negated; negations do not
  /// nest, which keeps complements small.
  FormulaPtr Make(int depth, bool strings) {
    switch (rng_.UniformInt(0, depth == 0 ? 2 : 7)) {
      case 0:
        return Linear();
      case 1:
        return RelAtom(strings);
      case 2:
        return strings ? Formula::And(RelAtom(true), StrAtom()) : Linear();
      case 3:
        return strings ? StrAtom() : Make(depth - 1, false);
      case 4:
      case 5:
        return Formula::And(Make(depth - 1, strings), Make(depth - 1, strings));
      case 6:
        return Formula::Or(Make(depth - 1, strings), Make(depth - 1, strings));
      default:
        return strings ? Formula::Not(Make(1, false)) : Linear();
    }
  }

 private:
  std::string Number() { return kNumbers[rng_.UniformInt(0, numbers_ - 1)]; }
  std::string String() { return kStrings[rng_.UniformInt(0, 1)]; }
  std::string Word() { return kWords[rng_.UniformInt(0, 2)]; }
  Rational Coefficient() {
    return Rational(rng_.UniformInt(1, 2) * (rng_.UniformInt(0, 1) ? 1 : -1));
  }

  /// One or two constraint variables, e.g. -2x + y - 1 <= 0.
  FormulaPtr Linear() {
    const std::string first = Number();
    LinearExpr e = V(first) * Coefficient() + C(rng_.UniformInt(-3, 3));
    if (const std::string second = Number();
        second != first && rng_.UniformInt(0, 1)) {
      e = e + V(second) * Coefficient();
    }
    const ConstraintOp ops[] = {ConstraintOp::kLe, ConstraintOp::kLt,
                                ConstraintOp::kEq};
    return Formula::Atom(Constraint(std::move(e), ops[rng_.UniformInt(0, 2)]));
  }

  /// R(s, u, x, y) or, without strings, T(x, y); variables may repeat.
  FormulaPtr RelAtom(bool strings) {
    if (!strings) return Formula::Rel("T", {Number(), Number()});
    return Formula::Rel("R", {String(), String(), Number(), Number()});
  }

  /// s = "p", s != "q" or s = u.
  FormulaPtr StrAtom() {
    switch (rng_.UniformInt(0, 2)) {
      case 0:
        return Formula::StrAtom(StringAtom::EqualsLiteral(String(), Word()));
      case 1:
        return Formula::StrAtom(StringAtom::NotEqualsLiteral(String(), Word()));
      default:
        return Formula::StrAtom(StringAtom::EqualsAttr("s", "u"));
    }
  }

  Rng& rng_;
  int64_t numbers_;
};

/// The CDB reading of `f` at `point`, which assigns every variable.
bool Holds(const Formula& f, const PointRow& point, const Database& db) {
  switch (f.kind()) {
    case Formula::Kind::kAtom:
      return f.constraint().IsSatisfiedBy(point.constraint);
    case Formula::Kind::kStrAtom: {
      const StringAtom& atom = f.string_atom();
      const Value& lhs = point.relational.at(atom.attribute);
      const Value rhs = atom.kind == StringAtom::Kind::kAttrEqualsAttr
                            ? point.relational.at(atom.attribute2)
                            : Value::String(atom.literal);
      return (lhs.AsString() == rhs.AsString()) != atom.negated;
    }
    case Formula::Kind::kRelation: {
      // The stored relation's own point semantics at the variables'
      // values: a repeated variable puts one value in both positions.
      const Relation& base = *db.Get(f.relation()).value();
      PointRow at;
      for (size_t i = 0; i < f.vars().size(); ++i) {
        const Attribute& attr = base.schema().attributes()[i];
        if (attr.kind == AttributeKind::kRelational) {
          at.relational[attr.name] = point.relational.at(f.vars()[i]);
        } else {
          at.constraint[attr.name] = point.constraint.at(f.vars()[i]);
        }
      }
      return base.ContainsPoint(at);
    }
    case Formula::Kind::kAnd:
      return Holds(*f.lhs(), point, db) && Holds(*f.rhs(), point, db);
    case Formula::Kind::kOr: {
      // A branch is padded to the other's variables: broad on a missing
      // constraint variable, null on a missing string variable, and a null
      // matches no point (narrow), so such a branch contributes nothing.
      auto contributes = [&](const Formula& branch, const Formula& other) {
        const std::set<std::string> own = branch.FreeVariables();
        for (const std::string& var : other.FreeVariables()) {
          if (IsString(var) && !own.count(var)) return false;
        }
        return Holds(branch, point, db);
      };
      return contributes(*f.lhs(), *f.rhs()) ||
             contributes(*f.rhs(), *f.lhs());
    }
    case Formula::Kind::kNot:
      return !Holds(*f.lhs(), point, db);
    case Formula::Kind::kExists:
      break;
  }
  ADD_FAILURE() << "no direct reading for " << f.ToString();
  return false;
}

/// Every variable: constraint values in halves from -3 to 3, string
/// values from kWords.
PointRow RandomPoint(Rng& rng) {
  PointRow p;
  for (const std::string& var : kNumbers) {
    p.constraint[var] = Rational(rng.UniformInt(-6, 6), 2);
  }
  for (const std::string& var : kStrings) {
    p.relational[var] = Value::String(kWords[rng.UniformInt(0, 2)]);
  }
  return p;
}

std::string Describe(const PointRow& p) {
  std::string out;
  for (const auto& [var, value] : p.constraint) {
    out += var + "=" + value.ToString() + " ";
  }
  for (const auto& [var, value] : p.relational) {
    out += var + "=" + value.AsString() + " ";
  }
  return out;
}

class CalculusPointProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CalculusPointProperty, EvaluateMatchesTheDirectReading) {
  Rng rng(GetParam());
  const Database db = RandomCatalog(rng);
  FormulaGenerator gen(&rng, 2 + static_cast<int64_t>(GetParam() % 2));
  int evaluated = 0;
  for (int iter = 0; iter < 80; ++iter) {
    const FormulaPtr f = gen.Make(3, true);
    Result<Relation> rel = Evaluate(*f, db);
    if (!rel.ok()) {
      // The safety refusals: a string variable no relation binds, or one
      // a linear universe binds as a number.
      const StatusCode code = rel.status().code();
      EXPECT_TRUE(code == StatusCode::kUnsupported ||
                  code == StatusCode::kInvalidArgument)
          << f->ToString() << ": " << rel.status().ToString();
      continue;
    }
    ++evaluated;
    int mismatches = 0;
    std::string first;
    for (int i = 0; i < 40; ++i) {
      const PointRow p = RandomPoint(rng);
      if (rel->ContainsPoint(p) != Holds(*f, p, db) && mismatches++ == 0) {
        first = Describe(p);
      }
    }
    EXPECT_EQ(mismatches, 0) << f->ToString() << ", first at " << first;
  }
  EXPECT_GE(evaluated, 50);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, CalculusPointProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ccdb::cqc
