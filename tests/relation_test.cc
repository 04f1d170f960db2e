#include "data/relation.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>

#include "constraint/fourier_motzkin.h"
#include "data/database.h"
#include "data/workload.h"
#include "obs/trace.h"

namespace ccdb {
namespace {

LinearExpr V(const std::string& n) { return LinearExpr::Variable(n); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

Schema MixedSchema() {
  return Schema::Make({Schema::RelationalString("name"),
                       Schema::ConstraintRational("t")})
      .value();
}

// --- Value ---------------------------------------------------------------------

TEST(ValueTest, NullSemantics) {
  Value null = Value::Null();
  EXPECT_TRUE(null.IsNull());
  // Narrow query equality: null equals nothing, not even null.
  EXPECT_FALSE(null.EqualsForQuery(null));
  EXPECT_FALSE(null.EqualsForQuery(Value::Number(1)));
  // Representation identity: null == null.
  EXPECT_EQ(null, Value::Null());
}

TEST(ValueTest, TypedValues) {
  Value s = Value::String("A");
  Value n = Value::Number(Rational(7, 2));
  EXPECT_TRUE(s.IsString());
  EXPECT_TRUE(n.IsNumber());
  EXPECT_EQ(s.AsString(), "A");
  EXPECT_EQ(n.AsNumber(), Rational(7, 2));
  EXPECT_TRUE(s.EqualsForQuery(Value::String("A")));
  EXPECT_FALSE(s.EqualsForQuery(Value::String("B")));
  EXPECT_FALSE(s.EqualsForQuery(n));
  EXPECT_TRUE(s.MatchesDomain(AttributeDomain::kString));
  EXPECT_FALSE(s.MatchesDomain(AttributeDomain::kRational));
  EXPECT_EQ(s.ToString(), "\"A\"");
  EXPECT_EQ(n.ToString(), "7/2");
}

// --- Tuple ---------------------------------------------------------------------

TEST(TupleTest, SetNullErases) {
  Tuple t;
  t.SetValue("a", Value::String("x"));
  EXPECT_FALSE(t.GetValue("a").IsNull());
  t.SetValue("a", Value::Null());
  EXPECT_TRUE(t.GetValue("a").IsNull());
  EXPECT_TRUE(t.values().empty());
}

TEST(TupleTest, MatchesPointHeterogeneous) {
  Schema schema = MixedSchema();
  Tuple t;
  t.SetValue("name", Value::String("Smith"));
  t.AddConstraint(Constraint::Ge(V("t"), C(4)));
  t.AddConstraint(Constraint::Le(V("t"), C(9)));

  PointRow inside{{{"name", Value::String("Smith")}}, {{"t", Rational(5)}}};
  EXPECT_TRUE(t.MatchesPoint(schema, inside));
  PointRow wrong_name{{{"name", Value::String("Jones")}},
                      {{"t", Rational(5)}}};
  EXPECT_FALSE(t.MatchesPoint(schema, wrong_name));
  PointRow outside_t{{{"name", Value::String("Smith")}},
                     {{"t", Rational(10)}}};
  EXPECT_FALSE(t.MatchesPoint(schema, outside_t));
}

TEST(TupleTest, MissingRelationalAttributeMatchesNothing) {
  // §3.1 narrow semantics: tuple with null name matches no point.
  Schema schema = MixedSchema();
  Tuple t;  // name missing
  t.AddConstraint(Constraint::Eq(V("t"), C(1)));
  PointRow p{{{"name", Value::String("anyone")}}, {{"t", Rational(1)}}};
  EXPECT_FALSE(t.MatchesPoint(schema, p));
}

TEST(TupleTest, UnconstrainedConstraintAttributeMatchesEverything) {
  // §3.1 broad semantics: unconstrained t admits every rational.
  Schema schema = MixedSchema();
  Tuple t;
  t.SetValue("name", Value::String("Smith"));
  for (int64_t v : {-1000000, 0, 42}) {
    PointRow p{{{"name", Value::String("Smith")}}, {{"t", Rational(v)}}};
    EXPECT_TRUE(t.MatchesPoint(schema, p)) << v;
  }
}

TEST(TupleTest, OrderingAndEquality) {
  Tuple a;
  a.SetValue("name", Value::String("A"));
  Tuple b;
  b.SetValue("name", Value::String("B"));
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
  Tuple a2;
  a2.SetValue("name", Value::String("A"));
  EXPECT_EQ(a, a2);
}

// --- Relation ---------------------------------------------------------------------

TEST(RelationTest, InsertValidatesAgainstSchema) {
  Relation rel(MixedSchema());

  Tuple bad_attr;
  bad_attr.SetValue("unknown", Value::String("x"));
  EXPECT_FALSE(rel.Insert(bad_attr).ok());

  Tuple value_on_constraint;
  value_on_constraint.SetValue("t", Value::Number(1));
  EXPECT_FALSE(rel.Insert(value_on_constraint).ok());

  Tuple wrong_domain;
  wrong_domain.SetValue("name", Value::Number(1));
  EXPECT_FALSE(rel.Insert(wrong_domain).ok());

  Tuple constraint_on_relational;
  constraint_on_relational.AddConstraint(
      Constraint::Eq(V("name"), C(1)));
  EXPECT_FALSE(rel.Insert(constraint_on_relational).ok());

  Tuple good;
  good.SetValue("name", Value::String("Smith"));
  good.AddConstraint(Constraint::Ge(V("t"), C(0)));
  EXPECT_TRUE(rel.Insert(good).ok());
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, InsertDropsSyntacticallyFalseTuple) {
  Relation rel(MixedSchema());
  Tuple t;
  t.SetValue("name", Value::String("S"));
  t.AddConstraint(Constraint::Le(C(1), C(0)));
  EXPECT_TRUE(rel.Insert(t).ok());
  EXPECT_EQ(rel.size(), 0u);
}

TEST(RelationTest, NormalizeDropsDeepUnsatAndMinimizes) {
  Relation rel(MixedSchema());
  Tuple unsat;
  unsat.AddConstraint(Constraint::Ge(V("t"), C(5)));
  unsat.AddConstraint(Constraint::Le(V("t"), C(1)));
  ASSERT_TRUE(rel.Insert(unsat).ok());
  EXPECT_EQ(rel.size(), 1u) << "deep unsat not caught at insert";

  Tuple redundant;
  redundant.AddConstraint(Constraint::Ge(V("t"), C(0)));
  redundant.AddConstraint(Constraint::Ge(V("t"), C(-5)));
  ASSERT_TRUE(rel.Insert(redundant).ok());

  rel.Normalize();
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.tuples()[0].constraints().size(), 1u)
      << "redundant bound t >= -5 must be removed";
}

TEST(RelationTest, DeduplicateRemovesIdenticalRepresentations) {
  Relation rel(MixedSchema());
  for (int i = 0; i < 3; ++i) {
    Tuple t;
    t.SetValue("name", Value::String("same"));
    ASSERT_TRUE(rel.Insert(t).ok());
  }
  rel.Deduplicate();
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, ContainsPointOverMultipleTuples) {
  Relation rel(MixedSchema());
  Tuple t1;
  t1.SetValue("name", Value::String("A"));
  t1.AddConstraint(Constraint::Le(V("t"), C(0)));
  Tuple t2;
  t2.SetValue("name", Value::String("B"));
  t2.AddConstraint(Constraint::Ge(V("t"), C(10)));
  ASSERT_TRUE(rel.Insert(t1).ok());
  ASSERT_TRUE(rel.Insert(t2).ok());

  EXPECT_TRUE(rel.ContainsPoint(
      {{{"name", Value::String("A")}}, {{"t", Rational(-1)}}}));
  EXPECT_TRUE(rel.ContainsPoint(
      {{{"name", Value::String("B")}}, {{"t", Rational(11)}}}));
  EXPECT_FALSE(rel.ContainsPoint(
      {{{"name", Value::String("A")}}, {{"t", Rational(11)}}}));
  EXPECT_FALSE(rel.ContainsPoint(
      {{{"name", Value::String("C")}}, {{"t", Rational(0)}}}));
}

TEST(RelationTest, InsertAllRequiresSameSchema) {
  Relation a(MixedSchema());
  Relation b(Schema::Make({Schema::RelationalString("other")}).value());
  EXPECT_FALSE(a.InsertAll(b).ok());
}


TEST(RelationTest, RemoveSubsumedDropsContainedTuples) {
  Schema schema = Schema::Make({Schema::RelationalString("name"),
                                Schema::ConstraintRational("t")})
                      .value();
  Relation rel(schema);
  Tuple wide;  // t in [0, 10]
  wide.SetValue("name", Value::String("A"));
  wide.AddConstraint(Constraint::Ge(V("t"), C(0)));
  wide.AddConstraint(Constraint::Le(V("t"), C(10)));
  Tuple narrow;  // t in [2, 5] -- subsumed by wide
  narrow.SetValue("name", Value::String("A"));
  narrow.AddConstraint(Constraint::Ge(V("t"), C(2)));
  narrow.AddConstraint(Constraint::Le(V("t"), C(5)));
  Tuple other_name;  // same range, different relational part: kept
  other_name.SetValue("name", Value::String("B"));
  other_name.AddConstraint(Constraint::Ge(V("t"), C(2)));
  other_name.AddConstraint(Constraint::Le(V("t"), C(5)));
  ASSERT_TRUE(rel.Insert(wide).ok());
  ASSERT_TRUE(rel.Insert(narrow).ok());
  ASSERT_TRUE(rel.Insert(other_name).ok());

  rel.RemoveSubsumed();
  ASSERT_EQ(rel.size(), 2u);
  // Semantics unchanged.
  EXPECT_TRUE(rel.ContainsPoint(
      {{{"name", Value::String("A")}}, {{"t", Rational(3)}}}));
  EXPECT_TRUE(rel.ContainsPoint(
      {{{"name", Value::String("B")}}, {{"t", Rational(3)}}}));
  EXPECT_FALSE(rel.ContainsPoint(
      {{{"name", Value::String("B")}}, {{"t", Rational(9)}}}));
}

TEST(RelationTest, RemoveSubsumedKeepsOneOfEquivalentPair) {
  Schema schema =
      Schema::Make({Schema::ConstraintRational("t")}).value();
  Relation rel(schema);
  Tuple a;  // t >= 0 AND t <= 4
  a.AddConstraint(Constraint::Ge(V("t"), C(0)));
  a.AddConstraint(Constraint::Le(V("t"), C(4)));
  Tuple b;  // 2t >= 0 AND 2t <= 8: same set, different syntax after scale
  b.AddConstraint(Constraint::Ge(V("t") * Rational(2), C(0)));
  b.AddConstraint(Constraint::Le(V("t") + V("t"), C(8)));
  ASSERT_TRUE(rel.Insert(a).ok());
  ASSERT_TRUE(rel.Insert(b).ok());
  rel.RemoveSubsumed();
  EXPECT_EQ(rel.size(), 1u) << "mutually-subsuming tuples collapse to one";
}

TEST(RelationTest, RemoveSubsumedHandlesOverlapWithoutContainment) {
  Schema schema =
      Schema::Make({Schema::ConstraintRational("t")}).value();
  Relation rel(schema);
  Tuple a;  // [0, 5]
  a.AddConstraint(Constraint::Ge(V("t"), C(0)));
  a.AddConstraint(Constraint::Le(V("t"), C(5)));
  Tuple b;  // [3, 9] -- overlaps, neither contains the other
  b.AddConstraint(Constraint::Ge(V("t"), C(3)));
  b.AddConstraint(Constraint::Le(V("t"), C(9)));
  ASSERT_TRUE(rel.Insert(a).ok());
  ASSERT_TRUE(rel.Insert(b).ok());
  rel.RemoveSubsumed();
  EXPECT_EQ(rel.size(), 2u);
}

// --- Cached tuple boxes -----------------------------------------------------------

/// A relational `k` and constraint attributes `x`, `y`.
Schema BoxSchema() {
  return Schema::Make({Schema::RelationalString("k"),
                       Schema::ConstraintRational("x"),
                       Schema::ConstraintRational("y")})
      .value();
}

/// A store of `constraints`, with `k` set.
Tuple KeyedTuple(const std::string& k, std::vector<Constraint> constraints) {
  Tuple t;
  t.SetValue("k", Value::String(k));
  for (Constraint& c : constraints) t.AddConstraint(std::move(c));
  return t;
}

/// One tuple of each shape the cache meets: a box, a store whose exact
/// box needs FM (x <= -4, y >= 5), a deep-unsatisfiable store, and an
/// unconstrained one.
Relation BoxShapes() {
  Relation rel(BoxSchema());
  EXPECT_TRUE(rel.Insert(KeyedTuple("box", {Constraint::Ge(V("x"), C(0)),
                                            Constraint::Le(V("x"), C(2)),
                                            Constraint::Gt(V("y"), C(1))}))
                  .ok());
  EXPECT_TRUE(
      rel.Insert(KeyedTuple("fm", {Constraint::Le(V("x") + V("y"), C(1)),
                                   Constraint::Ge(V("y"), C(5))}))
          .ok());
  EXPECT_TRUE(
      rel.Insert(KeyedTuple("unsat", {Constraint::Le(V("x") + V("y"), C(0)),
                                      Constraint::Ge(V("x"), C(1)),
                                      Constraint::Ge(V("y"), C(1))}))
          .ok());
  EXPECT_TRUE(rel.Insert(KeyedTuple("free", {})).ok());
  return rel;
}

/// Each row of the cached boxes of `rel` is fm::BoundingBox of that
/// tuple over the constraint attributes.
void ExpectExactBoxes(const Relation& rel) {
  auto boxes = rel.Boxes();
  ASSERT_TRUE(boxes.ok()) << boxes.status().ToString();
  const std::set<std::string> attrs = {"x", "y"};
  for (size_t row = 0; row < rel.size(); ++row) {
    for (const auto& [attr, want] :
         fm::BoundingBox(rel.tuples()[row].constraints(), attrs)) {
      const fm::Interval& got = (*boxes)->At(row, (*boxes)->Column(attr));
      EXPECT_EQ(got.empty, want.empty) << row << " " << attr;
      if (want.empty) continue;
      EXPECT_EQ(got.lower, want.lower) << row << " " << attr;
      EXPECT_EQ(got.upper, want.upper) << row << " " << attr;
    }
  }
}

TEST(RelationTest, CachedBoxesAreExactBoundingBoxes) {
  const Relation rel = BoxShapes();
  ExpectExactBoxes(rel);
  auto boxes = rel.Boxes();
  ASSERT_TRUE(boxes.ok());
  const TupleBoxes& b = **boxes;
  // The multi-variable store's box is exact, not read off y >= 5 alone.
  EXPECT_EQ(b.At(1, b.Column("x")).ToString(), "(-inf, -4]");
  EXPECT_EQ(b.At(1, b.Column("y")).ToString(), "[5, +inf)");
  EXPECT_TRUE(b.At(2, b.Column("x")).empty);
  EXPECT_EQ(b.At(3, b.Column("y")).ToString(), "(-inf, +inf)");
}

TEST(RelationTest, CopiesShareOneBoxBuild) {
  const Relation rel = BoxShapes();
  const Relation early = rel;  // copied before the build
  obs::CounterScope scope;
  auto first = rel.Boxes();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(scope.counters().boxes_built, rel.size());
  const Relation late = rel;  // copied after it
  for (const Relation* reader : {&rel, &early, &late}) {
    auto again = reader->Boxes();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), first->get());
  }
  EXPECT_EQ(scope.counters().boxes_built, rel.size()) << "built once";
}

TEST(RelationTest, RestampingMembersDetachTheBoxes) {
  const Relation original = BoxShapes();
  auto shared = original.Boxes();
  ASSERT_TRUE(shared.ok());
  // Each member runs on a copy that shares the built vector; afterwards
  // the copy's boxes match its new content and the original keeps its own.
  auto check = [&](const char* what, const std::function<void(Relation*)>& mutate) {
    SCOPED_TRACE(what);
    Relation copy = original;
    mutate(&copy);
    EXPECT_NE(copy.stamp(), original.stamp());
    auto now = copy.Boxes();
    ASSERT_TRUE(now.ok());
    EXPECT_NE(now->get(), shared->get());
    ExpectExactBoxes(copy);
    auto kept = original.Boxes();
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept->get(), shared->get());
  };
  const Tuple extra = KeyedTuple("extra", {Constraint::Ge(V("x"), C(7))});
  check("Insert", [&](Relation* r) { ASSERT_TRUE(r->Insert(extra).ok()); });
  check("InsertAll", [&](Relation* r) {
    Relation more(BoxSchema());
    ASSERT_TRUE(more.Insert(extra).ok());
    ASSERT_TRUE(r->InsertAll(more).ok());
  });
  check("Deduplicate", [&](Relation* r) {
    ASSERT_TRUE(r->Insert(r->tuples()[0]).ok());
    auto boxes = r->Boxes();  // built for the duplicate-holding version
    ASSERT_TRUE(boxes.ok());
    r->Deduplicate();
    EXPECT_EQ(r->size(), original.size());
  });
  check("Normalize", [&](Relation* r) {
    r->Normalize();
    EXPECT_EQ(r->size(), original.size() - 1);  // the unsat store goes
  });
  check("RemoveSubsumed", [&](Relation* r) {
    ASSERT_TRUE(r->Insert(KeyedTuple("box", {Constraint::Ge(V("x"), C(1)),
                                             Constraint::Le(V("x"), C(2)),
                                             Constraint::Gt(V("y"), C(1))}))
                    .ok());
    auto boxes = r->Boxes();
    ASSERT_TRUE(boxes.ok());
    r->RemoveSubsumed();
  });
  check("move-from", [&](Relation* r) {
    Relation taken = std::move(*r);
    auto boxes = taken.Boxes();  // the destination keeps the version
    ASSERT_TRUE(boxes.ok());
    EXPECT_EQ(boxes->get(), shared->get());
    auto emptied = r->Boxes();  // the source is a new, empty version
    ASSERT_TRUE(emptied.ok());
    EXPECT_NE(emptied->get(), shared->get());
    *r = BoxShapes();  // and takes new content by move-assignment
    ASSERT_TRUE(r->Insert(extra).ok());
  });
  check("copy-assign-over", [&](Relation* r) {
    Relation other(BoxSchema());
    ASSERT_TRUE(other.Insert(extra).ok());
    auto boxes = other.Boxes();
    ASSERT_TRUE(boxes.ok());
    *r = other;
    auto after = r->Boxes();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->get(), boxes->get());
  });
}

// --- Database ---------------------------------------------------------------------

TEST(DatabaseTest, CatalogLifecycle) {
  Database db;
  EXPECT_TRUE(db.Create("Land", Relation(MixedSchema())).ok());
  EXPECT_FALSE(db.Create("Land", Relation(MixedSchema())).ok());
  EXPECT_TRUE(db.Has("Land"));
  ASSERT_TRUE(db.Get("Land").ok());
  EXPECT_FALSE(db.Get("Sea").ok());
  db.CreateOrReplace("Land", Relation(MixedSchema()));
  EXPECT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.Drop("Land").ok());
  EXPECT_FALSE(db.Drop("Land").ok());
  EXPECT_EQ(db.size(), 0u);
}

TEST(DatabaseTest, NamesSorted) {
  Database db;
  ASSERT_TRUE(db.Create("b", Relation()).ok());
  ASSERT_TRUE(db.Create("a", Relation()).ok());
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"a", "b"}));
}

// --- Workload generator ---------------------------------------------------------------

TEST(WorkloadTest, RectanglesMatchPaperParameters) {
  WorkloadParams params;
  auto boxes = GenerateRectangles(500, 1, params);
  ASSERT_EQ(boxes.size(), 500u);
  for (const geom::Box& b : boxes) {
    EXPECT_GE(b.Width(), Rational(1));
    EXPECT_LE(b.Width(), Rational(100));
    EXPECT_GE(b.Height(), Rational(1));
    EXPECT_LE(b.Height(), Rational(100));
    EXPECT_GE(b.x_min, Rational(0));
    EXPECT_LE(b.x_min, Rational(3000));
    EXPECT_LE(b.y_max, Rational(3000));
    EXPECT_GE(b.y_max, Rational(0));
  }
}

TEST(WorkloadTest, DeterministicAcrossCalls) {
  auto a = GenerateRectangles(50, 42);
  auto b = GenerateRectangles(50, 42);
  EXPECT_EQ(a, b);
  auto c = GenerateRectangles(50, 43);
  EXPECT_NE(a, c);
}

TEST(WorkloadTest, ConstraintRelationHoldsBoxes) {
  auto boxes = GenerateRectangles(20, 7);
  Relation rel = BoxesToConstraintRelation(boxes);
  ASSERT_EQ(rel.size(), 20u);
  EXPECT_EQ(rel.schema().Find("x")->kind, AttributeKind::kConstraint);
  // Tuple 0's semantics contain its box center and exclude far points.
  geom::Point center = boxes[0].Center();
  EXPECT_TRUE(rel.tuples()[0].MatchesPoint(
      rel.schema(), PointRow{{}, {{"x", center.x}, {"y", center.y}}}));
  EXPECT_FALSE(rel.tuples()[0].MatchesPoint(
      rel.schema(),
      PointRow{{}, {{"x", Rational(-10)}, {"y", Rational(-10)}}}));
}

TEST(WorkloadTest, RelationalRelationHoldsCenters) {
  auto boxes = GenerateRectangles(5, 7);
  Relation rel = BoxesToRelationalRelation(boxes);
  ASSERT_EQ(rel.size(), 5u);
  EXPECT_EQ(rel.schema().Find("x")->kind, AttributeKind::kRelational);
  EXPECT_EQ(rel.tuples()[0].GetValue("x").AsNumber(), boxes[0].Center().x);
}

TEST(WorkloadTest, MixedRelationSplitsKinds) {
  auto boxes = GenerateRectangles(5, 7);
  Relation rel = BoxesToMixedRelation(boxes);
  EXPECT_EQ(rel.schema().Find("x")->kind, AttributeKind::kConstraint);
  EXPECT_EQ(rel.schema().Find("y")->kind, AttributeKind::kRelational);
}

}  // namespace
}  // namespace ccdb
