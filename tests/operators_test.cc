#include "core/operators.h"

#include <gtest/gtest.h>

#include "constraint/fourier_motzkin.h"
#include "obs/trace.h"
#include "util/random.h"

namespace ccdb::cqa {
namespace {

LinearExpr V(const std::string& n) { return LinearExpr::Variable(n); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

Schema TwoConstraintAttrs() {
  return Schema::Make({Schema::ConstraintRational("x"),
                       Schema::ConstraintRational("y")})
      .value();
}

Relation MustRelation(Schema schema, std::vector<Tuple> tuples) {
  Relation rel(std::move(schema));
  for (Tuple& t : tuples) {
    Status s = rel.Insert(std::move(t));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return rel;
}

Tuple ConstraintTuple(std::vector<Constraint> constraints) {
  Tuple t;
  for (Constraint& c : constraints) t.AddConstraint(std::move(c));
  return t;
}

Predicate LinearPred(std::vector<Constraint> constraints) {
  Predicate p;
  p.linear = std::move(constraints);
  return p;
}

// --- The paper's Example 2: the missing attribute inconsistency -------------------

TEST(SelectTest, PaperExample2BroadSemantics) {
  // R over constraint attributes {x, y} with the single tuple (x = 1).
  // Under broad semantics, ς_{y=17} R = {(x = 1, y = 17)}.
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Eq(V("x"), C(1))})});
  auto out = Select(r, LinearPred({Constraint::Eq(V("y"), C(17))}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->ContainsPoint(
      {{}, {{"x", Rational(1)}, {"y", Rational(17)}}}));
  EXPECT_FALSE(out->ContainsPoint(
      {{}, {{"x", Rational(1)}, {"y", Rational(18)}}}));
}

TEST(SelectTest, PaperExample2NarrowSemantics) {
  // Same data, but y is *relational*: the tuple's y is null, so
  // ς_{y=17} R = ∅ — upward compatibility with relational semantics.
  Schema schema = Schema::Make({Schema::ConstraintRational("x"),
                                Schema::RelationalRational("y")})
                      .value();
  Relation r = MustRelation(
      schema, {ConstraintTuple({Constraint::Eq(V("x"), C(1))})});
  auto out = Select(r, LinearPred({Constraint::Eq(V("y"), C(17))}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 0u);
}

// --- The paper's Example 3: dual behaviour under the C/R flag ------------------------

TEST(SelectTest, PaperExample3AsymmetricSchema) {
  // R = {(x = 1), (y = 1), (x = 17, y = 17)} with
  // schema [x: relational, y: constraint].
  Schema schema = Schema::Make({Schema::RelationalRational("x"),
                                Schema::ConstraintRational("y")})
                      .value();
  Tuple t1;  // (x = 1)
  t1.SetValue("x", Value::Number(1));
  Tuple t2;  // (y = 1)
  t2.AddConstraint(Constraint::Eq(V("y"), C(1)));
  Tuple t3;  // (x = 17, y = 17)
  t3.SetValue("x", Value::Number(17));
  t3.AddConstraint(Constraint::Eq(V("y"), C(17)));
  Relation r = MustRelation(schema, {t1, t2, t3});

  // ς_{x=17} R returns {(x = 17, y = 17)}.
  auto by_x = Select(r, LinearPred({Constraint::Eq(V("x"), C(17))}));
  ASSERT_TRUE(by_x.ok());
  ASSERT_EQ(by_x->size(), 1u);
  EXPECT_EQ(by_x->tuples()[0].GetValue("x").AsNumber(), Rational(17));

  // ς_{y=17} R returns {(x = 1, y = 17), (x = 17, y = 17)}.
  auto by_y = Select(r, LinearPred({Constraint::Eq(V("y"), C(17))}));
  ASSERT_TRUE(by_y.ok());
  ASSERT_EQ(by_y->size(), 2u);
  for (const Tuple& t : by_y->tuples()) {
    EXPECT_TRUE(fm::Entails(t.constraints(),
                            Constraint::Eq(V("y"), C(17))));
  }
}

// --- Select mechanics -------------------------------------------------------------

TEST(SelectTest, ConjoinsIntoStoreAndDropsUnsat) {
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x"), C(5))}),
       ConstraintTuple({Constraint::Ge(V("x"), C(10))})});
  auto out = Select(r, LinearPred({Constraint::Le(V("x"), C(7))}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u) << "second tuple is unsatisfiable with x <= 7";
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(5)}, {"y", Rational(0)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(6)}, {"y", Rational(0)}}}))
      << "the surviving tuple keeps its own x <= 5 bound";
}

TEST(SelectTest, DeepUnsatIsCaught) {
  // x <= y in the tuple, pred x >= y + 1: each constraint pair is fine
  // syntactically; only the solver sees the contradiction.
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x"), V("y"))})});
  auto out = Select(
      r, LinearPred({Constraint::Ge(V("x"), V("y") + C(1))}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u);
}

TEST(SelectTest, StringAtoms) {
  Schema schema = Schema::Make({Schema::RelationalString("name"),
                                Schema::ConstraintRational("t")})
                      .value();
  Tuple smith;
  smith.SetValue("name", Value::String("Smith"));
  Tuple jones;
  jones.SetValue("name", Value::String("Jones"));
  Tuple anon;  // null name
  anon.AddConstraint(Constraint::Ge(V("t"), C(0)));
  Relation r = MustRelation(schema, {smith, jones, anon});

  Predicate eq;
  eq.strings.push_back(StringAtom::EqualsLiteral("name", "Smith"));
  auto out = Select(r, eq);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);

  Predicate ne;
  ne.strings.push_back(StringAtom::NotEqualsLiteral("name", "Smith"));
  auto out2 = Select(r, ne);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->size(), 1u) << "null name matches neither = nor !=";
}

TEST(SelectTest, AttrEqualsAttrAtom) {
  Schema schema = Schema::Make({Schema::RelationalString("a"),
                                Schema::RelationalString("b")})
                      .value();
  Tuple same;
  same.SetValue("a", Value::String("x"));
  same.SetValue("b", Value::String("x"));
  Tuple diff;
  diff.SetValue("a", Value::String("x"));
  diff.SetValue("b", Value::String("y"));
  Relation r = MustRelation(schema, {same, diff});
  Predicate p;
  p.strings.push_back(StringAtom::EqualsAttr("a", "b"));
  auto out = Select(r, p);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST(SelectTest, ValidatesPredicateTypes) {
  Schema schema = Schema::Make({Schema::RelationalString("name"),
                                Schema::ConstraintRational("t")})
                      .value();
  Relation r(schema);
  // Arithmetic on a string attribute.
  EXPECT_FALSE(Select(r, LinearPred({Constraint::Eq(V("name"), C(1))})).ok());
  // String atom on a rational attribute.
  Predicate p;
  p.strings.push_back(StringAtom::EqualsLiteral("t", "x"));
  EXPECT_FALSE(Select(r, p).ok());
  // Unknown attribute.
  EXPECT_FALSE(Select(r, LinearPred({Constraint::Eq(V("zz"), C(1))})).ok());
}

// --- Project ------------------------------------------------------------------------

TEST(ProjectTest, EliminatesConstraintAttributeExistentially) {
  // Triangle x,y >= 0, x + y <= 2 projected to x gives [0, 2].
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Ge(V("x"), C(0)),
                        Constraint::Ge(V("y"), C(0)),
                        Constraint::Le(V("x") + V("y"), C(2))})});
  auto out = Project(r, {"x"});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(2)}}}));
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(0)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(3)}}}));
  EXPECT_FALSE(out->tuples()[0].constraints().Mentions("y"));
}

TEST(ProjectTest, RelationalProjectionDeduplicates) {
  Schema schema = Schema::Make({Schema::RelationalString("name"),
                                Schema::RelationalString("city")})
                      .value();
  Tuple a1;
  a1.SetValue("name", Value::String("A"));
  a1.SetValue("city", Value::String("X"));
  Tuple a2;
  a2.SetValue("name", Value::String("A"));
  a2.SetValue("city", Value::String("Y"));
  Relation r = MustRelation(schema, {a1, a2});
  auto out = Project(r, {"name"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST(ProjectTest, DropsUnsatisfiableTuples) {
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Ge(V("y"), C(5)),
                        Constraint::Le(V("y"), C(1))})});
  auto out = Project(r, {"x"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u)
      << "projection of an empty tuple must not become 'true'";
}

TEST(ProjectTest, ReordersAttributes) {
  auto out = Project(Relation(TwoConstraintAttrs()), {"y", "x"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().Names(), (std::vector<std::string>{"y", "x"}));
  EXPECT_FALSE(Project(Relation(TwoConstraintAttrs()), {"zz"}).ok());
}

// --- NaturalJoin ------------------------------------------------------------------------

TEST(JoinTest, SharedConstraintAttributeConjoins) {
  // Land extents join hurricane path on (x, y).
  Relation land = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Ge(V("x"), C(0)), Constraint::Le(V("x"), C(2)),
                        Constraint::Ge(V("y"), C(0)), Constraint::Le(V("y"), C(2))})});
  Relation path = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Eq(V("y"), V("x")),
                        Constraint::Ge(V("x"), C(1)),
                        Constraint::Le(V("x"), C(5))})});
  auto out = NaturalJoin(land, path);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  // The joined region is the diagonal from (1,1) to (2,2).
  EXPECT_TRUE(out->ContainsPoint(
      {{}, {{"x", Rational(3, 2)}, {"y", Rational(3, 2)}}}));
  EXPECT_FALSE(out->ContainsPoint(
      {{}, {{"x", Rational(3)}, {"y", Rational(3)}}}));
  EXPECT_FALSE(out->ContainsPoint(
      {{}, {{"x", Rational(3, 2)}, {"y", Rational(1)}}}));
}

TEST(JoinTest, DisjointConstraintTuplesVanish) {
  Relation a = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x"), C(0))})});
  Relation b = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Ge(V("x"), C(1))})});
  auto out = NaturalJoin(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u);
}

TEST(JoinTest, SharedRelationalAttributeIsEquiJoin) {
  Schema owners = Schema::Make({Schema::RelationalString("name"),
                                Schema::RelationalString("landId")})
                      .value();
  Schema lands = Schema::Make({Schema::RelationalString("landId"),
                               Schema::ConstraintRational("x")})
                     .value();
  Tuple o1;
  o1.SetValue("name", Value::String("Smith"));
  o1.SetValue("landId", Value::String("A"));
  Tuple o2;
  o2.SetValue("name", Value::String("Jones"));
  o2.SetValue("landId", Value::String("B"));
  Tuple null_owner;  // null landId joins nothing
  null_owner.SetValue("name", Value::String("Ghost"));
  Tuple l1;
  l1.SetValue("landId", Value::String("A"));
  l1.AddConstraint(Constraint::Ge(V("x"), C(0)));
  Relation r_owners = MustRelation(owners, {o1, o2, null_owner});
  Relation r_lands = MustRelation(lands, {l1});

  auto out = NaturalJoin(r_owners, r_lands);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->tuples()[0].GetValue("name").AsString(), "Smith");
  EXPECT_EQ(out->schema().Names(),
            (std::vector<std::string>{"name", "landId", "x"}));
}

TEST(JoinTest, CrossProductAndIntersect) {
  // The natural join of disjoint schemas is the cross product, and of
  // identical ones the intersection (the step language checks the schemas
  // when it compiles `product` and `intersect`; see lang_test).
  Schema sa = Schema::Make({Schema::ConstraintRational("a")}).value();
  Schema sb = Schema::Make({Schema::ConstraintRational("b")}).value();
  Relation ra = MustRelation(sa, {ConstraintTuple({Constraint::Le(V("a"), C(1))}),
                                  ConstraintTuple({Constraint::Ge(V("a"), C(5))})});
  Relation rb = MustRelation(sb, {ConstraintTuple({Constraint::Eq(V("b"), C(0))})});
  auto cross = NaturalJoin(ra, rb);
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->size(), 2u);

  Relation rc = MustRelation(sa, {ConstraintTuple({Constraint::Ge(V("a"), C(0))})});
  auto inter = NaturalJoin(ra, rc);
  ASSERT_TRUE(inter.ok());
  ASSERT_EQ(inter->size(), 2u);
  EXPECT_TRUE(inter->ContainsPoint({{}, {{"a", Rational(0)}}}));
  EXPECT_TRUE(inter->ContainsPoint({{}, {{"a", Rational(6)}}}));
  EXPECT_FALSE(inter->ContainsPoint({{}, {{"a", Rational(-1)}}}));
}

// --- Union / Rename ------------------------------------------------------------------------

TEST(UnionTest, MergesAndDeduplicates) {
  Relation a = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x"), C(0))})});
  Relation b = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x"), C(0))}),
       ConstraintTuple({Constraint::Ge(V("x"), C(9))})});
  auto out = Union(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  Schema other = Schema::Make({Schema::ConstraintRational("z")}).value();
  EXPECT_FALSE(Union(a, Relation(other)).ok());
}

TEST(RenameTest, ConstraintAttribute) {
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x") + V("y"), C(3))})});
  auto out = Rename(r, "x", "t");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().Has("t"));
  EXPECT_TRUE(out->ContainsPoint({{}, {{"t", Rational(1)}, {"y", Rational(1)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"t", Rational(2)}, {"y", Rational(2)}}}));
}

TEST(RenameTest, RelationalAttribute) {
  Schema schema = Schema::Make({Schema::RelationalString("name")}).value();
  Tuple t;
  t.SetValue("name", Value::String("Ada"));
  Relation r = MustRelation(schema, {t});
  auto out = Rename(r, "name", "who");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->tuples()[0].GetValue("who").AsString(), "Ada");
  EXPECT_TRUE(out->tuples()[0].GetValue("name").IsNull());
  EXPECT_FALSE(Rename(r, "missing", "z").ok());
}

// --- Difference ------------------------------------------------------------------------

TEST(DifferenceTest, IntervalSubtraction) {
  // [0, 10] minus [3, 5] = [0, 3) ∪ (5, 10].
  Schema schema = Schema::Make({Schema::ConstraintRational("x")}).value();
  Relation a = MustRelation(
      schema, {ConstraintTuple({Constraint::Ge(V("x"), C(0)),
                                Constraint::Le(V("x"), C(10))})});
  Relation b = MustRelation(
      schema, {ConstraintTuple({Constraint::Ge(V("x"), C(3)),
                                Constraint::Le(V("x"), C(5))})});
  auto out = Difference(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(1)}}}));
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(6)}}}));
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(29, 10)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(3)}}}))
      << "boundary of the subtrahend is removed (closed interval)";
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(4)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(5)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(11)}}}));
}

TEST(DifferenceTest, SubtractingEqualityLeavesPuncturedInterval) {
  Schema schema = Schema::Make({Schema::ConstraintRational("x")}).value();
  Relation a = MustRelation(
      schema, {ConstraintTuple({Constraint::Ge(V("x"), C(0)),
                                Constraint::Le(V("x"), C(2))})});
  Relation b = MustRelation(
      schema, {ConstraintTuple({Constraint::Eq(V("x"), C(1))})});
  auto out = Difference(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(0)}}}));
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(2)}}}));
  EXPECT_TRUE(out->ContainsPoint({{}, {{"x", Rational(999, 1000)}}}));
  EXPECT_FALSE(out->ContainsPoint({{}, {{"x", Rational(1)}}}));
}

TEST(DifferenceTest, RespectsRelationalAttributes) {
  Schema schema = Schema::Make({Schema::RelationalString("name"),
                                Schema::ConstraintRational("t")})
                      .value();
  Tuple smith;
  smith.SetValue("name", Value::String("Smith"));
  smith.AddConstraint(Constraint::Ge(V("t"), C(0)));
  smith.AddConstraint(Constraint::Le(V("t"), C(10)));
  Relation a = MustRelation(schema, {smith});

  Tuple jones;  // different relational value: subtracts nothing
  jones.SetValue("name", Value::String("Jones"));
  jones.AddConstraint(Constraint::Ge(V("t"), C(0)));
  jones.AddConstraint(Constraint::Le(V("t"), C(10)));
  auto unaffected = Difference(a, MustRelation(schema, {jones}));
  ASSERT_TRUE(unaffected.ok());
  EXPECT_EQ(unaffected->size(), 1u);
  EXPECT_TRUE(unaffected->ContainsPoint(
      {{{"name", Value::String("Smith")}}, {{"t", Rational(5)}}}));

  Tuple smith2;  // same relational value: subtracts the middle
  smith2.SetValue("name", Value::String("Smith"));
  smith2.AddConstraint(Constraint::Ge(V("t"), C(4)));
  smith2.AddConstraint(Constraint::Le(V("t"), C(6)));
  auto out = Difference(a, MustRelation(schema, {smith2}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ContainsPoint(
      {{{"name", Value::String("Smith")}}, {{"t", Rational(1)}}}));
  EXPECT_FALSE(out->ContainsPoint(
      {{{"name", Value::String("Smith")}}, {{"t", Rational(5)}}}));
}

TEST(DifferenceTest, TotalSubtractionGivesEmpty) {
  Schema schema = Schema::Make({Schema::ConstraintRational("x")}).value();
  Relation a = MustRelation(
      schema, {ConstraintTuple({Constraint::Ge(V("x"), C(2)),
                                Constraint::Le(V("x"), C(4))})});
  Relation b = MustRelation(
      schema, {ConstraintTuple({Constraint::Ge(V("x"), C(0)),
                                Constraint::Le(V("x"), C(10))})});
  auto out = Difference(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u);
}

TEST(DifferenceTest, EmptyStoreSubtrahendSwallowsEverything) {
  // An rhs tuple with empty store means "all (x, y)" — total subtraction.
  Relation a = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Ge(V("x"), C(0))})});
  Relation b = MustRelation(TwoConstraintAttrs(), {Tuple()});
  auto out = Difference(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u);
}

// --- Closure / semantics property test ------------------------------------------------

// Random relations over constraint attributes {x, y}; verify that operator
// outputs have exactly the semantics of the corresponding set operation,
// at sampled rational points (the §2.5 closure principle, semantically).
TEST(OperatorSemanticsTest, RandomizedPointSemantics) {
  Rng rng(987654);
  auto random_relation = [&](int max_tuples) {
    Relation rel(TwoConstraintAttrs());
    int n = static_cast<int>(rng.UniformInt(1, max_tuples));
    for (int i = 0; i < n; ++i) {
      Tuple t;
      int m = static_cast<int>(rng.UniformInt(1, 3));
      for (int j = 0; j < m; ++j) {
        LinearExpr e = V("x") * Rational(rng.UniformInt(-2, 2)) +
                       V("y") * Rational(rng.UniformInt(-2, 2)) +
                       C(rng.UniformInt(-6, 6));
        int op = static_cast<int>(rng.UniformInt(0, 2));
        t.AddConstraint(Constraint(e, op == 0   ? ConstraintOp::kLe
                                      : op == 1 ? ConstraintOp::kLt
                                                : ConstraintOp::kEq));
      }
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };

  for (int iter = 0; iter < 60; ++iter) {
    Relation r1 = random_relation(3);
    Relation r2 = random_relation(3);

    auto joined = NaturalJoin(r1, r2);
    auto united = Union(r1, r2);
    auto diffed = Difference(r1, r2);
    auto projected = Project(r1, {"x"});
    Predicate pred = LinearPred({Constraint::Le(V("x") + V("y"), C(3))});
    auto selected = Select(r1, pred);
    ASSERT_TRUE(joined.ok() && united.ok() && diffed.ok() &&
                projected.ok() && selected.ok());

    for (int s = 0; s < 25; ++s) {
      Rational x(rng.UniformInt(-8, 8), rng.UniformInt(1, 3));
      Rational y(rng.UniformInt(-8, 8), rng.UniformInt(1, 3));
      PointRow p{{}, {{"x", x}, {"y", y}}};
      const bool in1 = r1.ContainsPoint(p);
      const bool in2 = r2.ContainsPoint(p);

      EXPECT_EQ(joined->ContainsPoint(p), in1 && in2) << "join";
      EXPECT_EQ(united->ContainsPoint(p), in1 || in2) << "union";
      EXPECT_EQ(diffed->ContainsPoint(p), in1 && !in2) << "difference";
      EXPECT_EQ(selected->ContainsPoint(p),
                in1 && (x + y <= Rational(3)))
          << "select";
      // Projection: x in π_x(R1) iff some sampled y' works — check the
      // forward direction (soundness) plus membership of this very point.
      if (in1) {
        EXPECT_TRUE(projected->ContainsPoint({{}, {{"x", x}}}))
            << "project soundness";
      }
    }
  }
}

// --- Filter and refine -------------------------------------------------------------

TEST(FilterRefineTest, EveryTestedTupleIsPrunedOrRefined) {
  // Select with linear atoms only: each input tuple is either rejected
  // by the box test or materialized for FM, never both.
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Ge(V("x"), C(0)),
                        Constraint::Le(V("x"), C(2))}),
       ConstraintTuple({Constraint::Ge(V("x"), C(2)),
                        Constraint::Le(V("x"), C(4))}),
       ConstraintTuple({Constraint::Gt(V("x"), C(4)),
                        Constraint::Le(V("x"), C(6))}),
       ConstraintTuple({Constraint::Le(V("x") + V("y"), C(1))})});
  obs::CounterScope scope;
  // x <= 4 touches the second box at 4 but not the strict third one.
  auto out = Select(r, LinearPred({Constraint::Ge(V("x"), C(2)),
                                   Constraint::Le(V("x"), C(4))}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);  // [0,2] touches at 2; x + y <= 1 survives
  EXPECT_EQ(scope.counters().box_prunes, 1u);
  EXPECT_EQ(scope.counters().conjunctions, 3u);
}

TEST(FilterRefineTest, ExactBoxPrunesWhatSingleVariableBoundsMiss) {
  // y >= 5 alone leaves x unbounded, but with x + y <= 1 the exact box
  // has x <= -4: disjoint from x >= 0, so the store is pruned before FM.
  Relation r = MustRelation(
      TwoConstraintAttrs(),
      {ConstraintTuple({Constraint::Le(V("x") + V("y"), C(1)),
                        Constraint::Ge(V("y"), C(5))})});
  obs::CounterScope scope;
  auto out = Select(r, LinearPred({Constraint::Ge(V("x"), C(0))}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(scope.counters().box_prunes, 1u);
  EXPECT_EQ(scope.counters().conjunctions, 0u);
  EXPECT_EQ(scope.counters().boxes_built, 1u);
}

TEST(FilterRefineTest, OperatorsTestingNoConstraintAttributeBuildNoBoxes) {
  const Schema keyed = Schema::Make({Schema::RelationalRational("k"),
                                     Schema::ConstraintRational("x")})
                           .value();
  const Schema other = Schema::Make({Schema::RelationalRational("k"),
                                     Schema::ConstraintRational("y")})
                           .value();
  Tuple t;
  t.SetValue("k", Value::Number(Rational(1)));
  t.AddConstraint(Constraint::Ge(V("x"), C(0)));
  Tuple u;
  u.SetValue("k", Value::Number(Rational(1)));
  u.AddConstraint(Constraint::Ge(V("y"), C(0)));
  Relation lhs = MustRelation(keyed, {t});
  Relation rhs = MustRelation(other, {u});
  obs::CounterScope scope;
  auto joined = NaturalJoin(lhs, rhs);  // shares only the relational k
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 1u);
  auto selected =  // no single-variable atom over a constraint attribute
      Select(lhs, LinearPred({Constraint::Le(V("x") + V("k"), C(9))}));
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 1u);
  EXPECT_EQ(scope.counters().boxes_built, 0u);
}

}  // namespace
}  // namespace ccdb::cqa
