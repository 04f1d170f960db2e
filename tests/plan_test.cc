#include "core/plan.h"

#include <gtest/gtest.h>

#include "lang/data_parser.h"
#include "util/random.h"

namespace ccdb::cqa {
namespace {

LinearExpr V(const std::string& n) { return LinearExpr::Variable(n); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

Predicate LinearPred(std::vector<Constraint> cs) {
  Predicate p;
  p.linear = std::move(cs);
  return p;
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Status s = lang::LoadDatabaseFile(
        std::string(CCDB_DATA_DIR) + "/hurricane/hurricane.cdb", &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  Database db_;
};

TEST_F(PlanTest, InferSchemaMatchesExecution) {
  auto plan = PlanNode::Project(
      PlanNode::Select(
          PlanNode::Join(PlanNode::Scan("Landownership"),
                         PlanNode::Scan("Land")),
          LinearPred({Constraint::Ge(V("t"), C(4))})),
      {"name", "landId"});
  auto schema = InferSchema(*plan, db_);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto result = Execute(*plan, db_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->schema(), *schema);
}

TEST_F(PlanTest, InferSchemaReportsErrors) {
  EXPECT_FALSE(InferSchema(*PlanNode::Scan("NoSuch"), db_).ok());
  auto bad_union = PlanNode::UnionOf(PlanNode::Scan("Land"),
                                     PlanNode::Scan("Hurricane"));
  EXPECT_FALSE(InferSchema(*bad_union, db_).ok());
}

TEST_F(PlanTest, EmptySelectIsRemoved) {
  auto plan = PlanNode::Select(PlanNode::Scan("Land"), Predicate{});
  auto optimized = Optimize(plan->Clone(), db_);
  EXPECT_EQ(optimized->op, PlanNode::Op::kScan);
}

TEST_F(PlanTest, AdjacentSelectsMerge) {
  auto plan = PlanNode::Select(
      PlanNode::Select(PlanNode::Scan("Hurricane"),
                       LinearPred({Constraint::Ge(V("t"), C(4))})),
      LinearPred({Constraint::Le(V("t"), C(9))}));
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kSelect);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kScan);
  EXPECT_EQ(optimized->predicate.linear.size(), 2u);
}

TEST_F(PlanTest, SelectPushesBelowUnion) {
  auto plan = PlanNode::Select(
      PlanNode::UnionOf(PlanNode::Scan("Land"), PlanNode::Scan("Land")),
      LinearPred({Constraint::Le(V("x"), C(2))}));
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kUnion);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kSelect);
  EXPECT_EQ(optimized->children[1]->op, PlanNode::Op::kSelect);
}

TEST_F(PlanTest, SelectPushesThroughRename) {
  auto plan = PlanNode::Select(
      PlanNode::RenameAttr(PlanNode::Scan("Hurricane"), "t", "when"),
      LinearPred({Constraint::Ge(V("when"), C(4))}));
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kRename);
  ASSERT_EQ(optimized->children[0]->op, PlanNode::Op::kSelect);
  EXPECT_TRUE(optimized->children[0]->predicate.linear[0].Mentions("t"))
      << "predicate rewritten to the pre-rename attribute";
  // Semantics preserved.
  auto before = Execute(*plan, db_);
  auto after = Execute(*optimized, db_);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->size(), after->size());
}

TEST_F(PlanTest, SelectSplitsAcrossJoin) {
  // t only touches Landownership+Hurricane side; landId atom touches both
  // scans of the join (it is in both schemas)... use x for the Land side.
  auto plan = PlanNode::Select(
      PlanNode::Join(PlanNode::Scan("Landownership"),
                     PlanNode::Scan("Land")),
      LinearPred({Constraint::Ge(V("t"), C(4)),
                  Constraint::Le(V("x"), C(2))}));
  auto optimized = Optimize(plan->Clone(), db_);
  // Both atoms are single-side: the top select disappears entirely.
  ASSERT_EQ(optimized->op, PlanNode::Op::kJoin);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kSelect);
  EXPECT_EQ(optimized->children[1]->op, PlanNode::Op::kSelect);
}

TEST_F(PlanTest, CrossSideAtomStaysAbove) {
  // Rename Land's x to position so the predicate ties both sides:
  // t <= position mentions t (left) and position (right).
  auto plan = PlanNode::Select(
      PlanNode::Join(PlanNode::Scan("Landownership"),
                     PlanNode::RenameAttr(PlanNode::Scan("Land"), "x",
                                          "position")),
      LinearPred({Constraint::Le(V("t"), V("position"))}));
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kSelect);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kJoin);
}

TEST_F(PlanTest, OptimizationPreservesSemanticsRandomized) {
  Rng rng(5150);
  for (int iter = 0; iter < 30; ++iter) {
    // Random select-over-join/union shapes with random interval predicates.
    auto base = rng.UniformInt(0, 1)
                    ? PlanNode::Join(PlanNode::Scan("Landownership"),
                                     PlanNode::Scan("Land"))
                    : PlanNode::UnionOf(PlanNode::Scan("Hurricane"),
                                        PlanNode::Scan("Hurricane"));
    bool joined = base->op == PlanNode::Op::kJoin;
    std::vector<Constraint> atoms;
    int n = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < n; ++i) {
      std::string attr = joined ? (rng.UniformInt(0, 1) ? "t" : "x")
                                : (rng.UniformInt(0, 1) ? "t" : "y");
      int64_t bound = rng.UniformInt(-2, 10);
      atoms.push_back(rng.UniformInt(0, 1)
                          ? Constraint::Ge(V(attr), C(bound))
                          : Constraint::Le(V(attr), C(bound)));
    }
    auto plan = PlanNode::Select(std::move(base), LinearPred(atoms));
    auto optimized = Optimize(plan->Clone(), db_);

    auto naive = Execute(*plan, db_);
    auto optimal = Execute(*optimized, db_);
    ASSERT_TRUE(naive.ok() && optimal.ok());
    ASSERT_EQ(naive->schema(), optimal->schema());
    // Compare semantics at sample points.
    for (int s = 0; s < 30; ++s) {
      PointRow p;
      for (const Attribute& attr : naive->schema().attributes()) {
        if (attr.kind == AttributeKind::kRelational) {
          p.relational[attr.name] =
              Value::String(std::string(1, static_cast<char>(
                                               'A' + rng.UniformInt(0, 4))));
        } else {
          p.constraint[attr.name] =
              Rational(rng.UniformInt(-2, 12), rng.UniformInt(1, 2));
        }
      }
      // Names in Landownership are multi-letter; also sample those.
      if (p.relational.count("name")) {
        const char* names[] = {"Smith", "Jones", "Brown", "Davis"};
        p.relational["name"] =
            Value::String(names[rng.UniformInt(0, 3)]);
      }
      EXPECT_EQ(naive->ContainsPoint(p), optimal->ContainsPoint(p));
    }
  }
}

TEST_F(PlanTest, PushdownReducesIntermediateWork) {
  // A synthetic pair of relations whose cross-style join is large: 30
  // intervals on `a` times 30 intervals on `b`. Pushing the selective
  // predicates below the join shrinks the join input from 30x30 to 2x2.
  auto make = [](const std::string& attr) {
    Relation rel(Schema::Make({Schema::ConstraintRational(attr)}).value());
    for (int64_t i = 0; i < 30; ++i) {
      Tuple t;
      t.AddConstraint(Constraint::Ge(V(attr), C(i)));
      t.AddConstraint(Constraint::Le(V(attr), C(i + 1)));
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };
  Database db;
  ASSERT_TRUE(db.Create("R", make("a")).ok());
  ASSERT_TRUE(db.Create("S", make("b")).ok());

  auto plan = PlanNode::Select(
      PlanNode::Join(PlanNode::Scan("R"), PlanNode::Scan("S")),
      LinearPred({Constraint::Ge(V("a"), C(28)),
                  Constraint::Le(V("b"), C(2))}));
  auto optimized = Optimize(plan->Clone(), db);
  obs::TraceNode naive_root, opt_root;
  auto naive = ExecuteTraced(*plan, db, &naive_root);
  auto optimal = ExecuteTraced(*optimized, db, &opt_root);
  ASSERT_TRUE(naive.ok() && optimal.ok());
  EXPECT_EQ(naive->size(), optimal->size());
  // Intermediate work: tuples produced below the root (the root's own
  // output is the result).
  auto intermediate = [](const obs::TraceNode& root) {
    return root.SumTuplesOut() - root.tuples_out;
  };
  EXPECT_LT(intermediate(opt_root), intermediate(naive_root) / 5)
      << "optimized " << intermediate(opt_root) << " vs naive "
      << intermediate(naive_root);
}

TEST_F(PlanTest, ToStringRendersTree) {
  auto plan = PlanNode::Project(
      PlanNode::Select(PlanNode::Scan("Hurricane"),
                       LinearPred({Constraint::Ge(V("t"), C(4))})),
      {"x", "y"});
  std::string text = plan->ToString();
  EXPECT_NE(text.find("Project [x, y]"), std::string::npos);
  EXPECT_NE(text.find("Select ["), std::string::npos);
  EXPECT_NE(text.find("Scan Hurricane"), std::string::npos);
}

TEST_F(PlanTest, DifferencePlanExecutes) {
  auto plan = PlanNode::DifferenceOf(PlanNode::Scan("Land"),
                                     PlanNode::Scan("Land"));
  auto out = Execute(*plan, db_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u);
}


// --- Projection rewrites ------------------------------------------------------------

TEST_F(PlanTest, IdentityProjectionVanishes) {
  auto plan = PlanNode::Project(PlanNode::Scan("Hurricane"), {"t", "x", "y"});
  auto optimized = Optimize(plan->Clone(), db_);
  EXPECT_EQ(optimized->op, PlanNode::Op::kScan);
  // Reordered attribute lists are NOT identities.
  auto reorder = PlanNode::Project(PlanNode::Scan("Hurricane"),
                                   {"y", "x", "t"});
  EXPECT_EQ(Optimize(reorder->Clone(), db_)->op, PlanNode::Op::kProject);
}

TEST_F(PlanTest, AdjacentProjectionsCompose) {
  auto plan = PlanNode::Project(
      PlanNode::Project(PlanNode::Scan("Landownership"), {"name", "t"}),
      {"name"});
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kProject);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kScan);
  EXPECT_EQ(optimized->attrs, (std::vector<std::string>{"name"}));
}

TEST_F(PlanTest, ProjectionPushesBelowUnion) {
  auto plan = PlanNode::Project(
      PlanNode::UnionOf(PlanNode::Scan("Land"), PlanNode::Scan("Land")),
      {"landId"});
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kUnion);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kProject);
  EXPECT_EQ(optimized->children[1]->op, PlanNode::Op::kProject);
  auto before = Execute(*plan, db_);
  auto after = Execute(*optimized, db_);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->size(), after->size());
}

TEST_F(PlanTest, SelectSinksBelowProjection) {
  Predicate pred = LinearPred({Constraint::Ge(V("t"), C(4))});
  auto plan = PlanNode::Select(
      PlanNode::Project(PlanNode::Scan("Hurricane"), {"t", "x"}), pred);
  auto optimized = Optimize(plan->Clone(), db_);
  ASSERT_EQ(optimized->op, PlanNode::Op::kProject);
  EXPECT_EQ(optimized->children[0]->op, PlanNode::Op::kSelect);
  auto before = Execute(*plan, db_);
  auto after = Execute(*optimized, db_);
  ASSERT_TRUE(before.ok() && after.ok());
  ASSERT_EQ(before->schema(), after->schema());
  for (int t = 0; t <= 10; ++t) {
    for (int x = 0; x <= 5; ++x) {
      PointRow p{{}, {{"t", Rational(t)}, {"x", Rational(x)}}};
      EXPECT_EQ(before->ContainsPoint(p), after->ContainsPoint(p))
          << "t=" << t << " x=" << x;
    }
  }
}

TEST_F(PlanTest, ProjectionRewritesReachFixpoint) {
  // A deliberately messy plan; optimization must terminate and preserve
  // semantics.
  Predicate pred = LinearPred({Constraint::Le(V("t"), C(8))});
  auto plan = PlanNode::Project(
      PlanNode::Select(
          PlanNode::Project(
              PlanNode::Join(PlanNode::Scan("Landownership"),
                             PlanNode::Scan("Land")),
              {"name", "t", "landId"}),
          pred),
      {"name", "t"});
  auto optimized = Optimize(plan->Clone(), db_);
  auto before = Execute(*plan, db_);
  auto after = Execute(*optimized, db_);
  ASSERT_TRUE(before.ok() && after.ok()) << after.status().ToString();
  ASSERT_EQ(before->schema(), after->schema());
  const char* names[] = {"Smith", "Jones", "Brown", "Davis"};
  for (const char* name : names) {
    for (int t = 0; t <= 10; ++t) {
      PointRow p{{{"name", Value::String(name)}}, {{"t", Rational(t)}}};
      EXPECT_EQ(before->ContainsPoint(p), after->ContainsPoint(p))
          << name << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace ccdb::cqa
