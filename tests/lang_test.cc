#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "lang/data_parser.h"
#include "lang/expr_parser.h"
#include "lang/lexer.h"
#include "lang/query.h"
#include "service/query_service.h"

namespace ccdb::lang {
namespace {

// --- Lexer -----------------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("R0 = select x <= 2.5, name != \"Smith\" from R");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  TokenStream ts(std::move(tokens).value());
  EXPECT_EQ(ts.Next().text, "R0");
  EXPECT_TRUE(ts.Next().IsSymbol("="));
  EXPECT_TRUE(ts.Peek().IsKeyword("SELECT")) << "keywords case-insensitive";
  ts.Next();
  EXPECT_EQ(ts.Next().text, "x");
  EXPECT_TRUE(ts.Next().IsSymbol("<="));
  EXPECT_EQ(ts.Next().text, "2.5");
  EXPECT_TRUE(ts.Next().IsSymbol(","));
  ts.Next();  // name
  EXPECT_TRUE(ts.Next().IsSymbol("!="));
  Token str = ts.Next();
  EXPECT_TRUE(str.Is(TokenKind::kString));
  EXPECT_EQ(str.text, "Smith");
}

TEST(LexerTest, CommentsAndErrors) {
  auto tokens = Tokenize("x <= 1 # everything after is ignored $%");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 4u);  // x, <=, 1, END
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("x @ y").ok());
  auto diamond = Tokenize("x <> y");
  ASSERT_TRUE(diamond.ok());
  EXPECT_EQ((*diamond)[1].text, "!=") << "<> normalizes to !=";
}

// --- Expression parsing -----------------------------------------------------------

Result<LinearExpr> ParseExprText(const std::string& text) {
  CCDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  return ParseLinearExpr(&ts);
}

TEST(ExprParserTest, TermsAndCoefficients) {
  auto e = ParseExprText("2x + 3/2y - 7");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->Coeff("x"), Rational(2));
  EXPECT_EQ(e->Coeff("y"), Rational(3, 2));
  EXPECT_EQ(e->constant(), Rational(-7));

  auto decimal = ParseExprText("2.5x");
  ASSERT_TRUE(decimal.ok());
  EXPECT_EQ(decimal->Coeff("x"), Rational(5, 2));

  auto star = ParseExprText("2 * x - 1");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->Coeff("x"), Rational(2));

  auto unary = ParseExprText("-x + y");
  ASSERT_TRUE(unary.ok());
  EXPECT_EQ(unary->Coeff("x"), Rational(-1));

  EXPECT_FALSE(ParseExprText("+").ok());
  EXPECT_FALSE(ParseExprText("2 +").ok());
}

TEST(ExprParserTest, ComparisonListAndOps) {
  auto list = ParseComparisonList("t >= 4, t <= 9, x + y = 2");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].op, ">=");
  EXPECT_EQ((*list)[2].op, "=");
  EXPECT_TRUE(ParseComparisonList("").value().empty());
  EXPECT_FALSE(ParseComparisonList("x <").ok());
  EXPECT_FALSE(ParseComparisonList("x = 1 y = 2").ok()) << "missing comma";
}

// --- Binding ----------------------------------------------------------------------

Schema BindSchema() {
  return Schema::Make({Schema::RelationalString("name"),
                       Schema::RelationalString("landId"),
                       Schema::RelationalRational("pop"),
                       Schema::ConstraintRational("t")})
      .value();
}

TEST(BindPredicateTest, ResolvesStringAndLinearAtoms) {
  auto parsed = ParseComparisonList(
      "landId = A, name != \"Smith\", t >= 4, pop <= 1000");
  ASSERT_TRUE(parsed.ok());
  auto pred = BindPredicate(BindSchema(), *parsed);
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  ASSERT_EQ(pred->strings.size(), 2u);
  EXPECT_EQ(pred->strings[0].attribute, "landId");
  EXPECT_EQ(pred->strings[0].literal, "A") << "bare literal, §3.3 style";
  EXPECT_TRUE(pred->strings[1].negated);
  EXPECT_EQ(pred->linear.size(), 2u);
}

TEST(BindPredicateTest, AttrEqualsAttrOnStrings) {
  auto parsed = ParseComparisonList("name = landId");
  ASSERT_TRUE(parsed.ok());
  auto pred = BindPredicate(BindSchema(), *parsed);
  ASSERT_TRUE(pred.ok());
  ASSERT_EQ(pred->strings.size(), 1u);
  EXPECT_EQ(pred->strings[0].kind, StringAtom::Kind::kAttrEqualsAttr);
}

TEST(BindPredicateTest, RejectsIllTypedAtoms) {
  // Numeric != is not atomic.
  auto ne = ParseComparisonList("t != 3");
  ASSERT_TRUE(ne.ok());
  EXPECT_FALSE(BindPredicate(BindSchema(), *ne).ok());
  // String attr vs rational attr.
  auto mixed = ParseComparisonList("name = pop");
  ASSERT_TRUE(mixed.ok());
  EXPECT_FALSE(BindPredicate(BindSchema(), *mixed).ok());
  // Quoted string with inequality.
  auto strcmp_le = ParseComparisonList("name <= \"Z\"");
  ASSERT_TRUE(strcmp_le.ok());
  EXPECT_FALSE(BindPredicate(BindSchema(), *strcmp_le).ok());
}

TEST(BindTupleTest, SplitsValuesAndConstraints) {
  auto parsed = ParseComparisonList(
      "name = \"Smith\", landId = A, pop = 42, t >= 0, t <= 5");
  ASSERT_TRUE(parsed.ok());
  auto tuple = BindTuple(BindSchema(), *parsed);
  ASSERT_TRUE(tuple.ok()) << tuple.status().ToString();
  EXPECT_EQ(tuple->GetValue("name").AsString(), "Smith");
  EXPECT_EQ(tuple->GetValue("landId").AsString(), "A");
  EXPECT_EQ(tuple->GetValue("pop").AsNumber(), Rational(42));
  EXPECT_EQ(tuple->constraints().size(), 2u);
}

// --- Data files -------------------------------------------------------------------

constexpr char kTinyDb[] = R"(
# a tiny database
relation Points
schema label: string relational; x: rational constraint; y: rational constraint
tuple label = "origin", x = 0, y = 0
tuple label = "line", y = 2x, x >= 0, x <= 1
)";

TEST(DataParserTest, LoadsRelations) {
  Database db;
  Status s = LoadDatabaseText(kTinyDb, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto rel = db.Get("Points");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 2u);
  EXPECT_TRUE((*rel)->ContainsPoint({{{"label", Value::String("line")}},
                                     {{"x", Rational(1, 2)},
                                      {"y", Rational(1)}}}));
  EXPECT_FALSE((*rel)->ContainsPoint({{{"label", Value::String("line")}},
                                      {{"x", Rational(1, 2)},
                                       {"y", Rational(2)}}}));
}

TEST(DataParserTest, ReportsErrorsWithLineNumbers) {
  Database db;
  Status s = LoadDatabaseText("relation R\nschema x: rational constraint\n"
                              "tuple y = 1\n",
                              &db);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();

  Database db2;
  EXPECT_FALSE(LoadDatabaseText("tuple x = 1\n", &db2).ok())
      << "tuple before relation";
  Database db3;
  EXPECT_FALSE(LoadDatabaseText("relation R\nnonsense\n", &db3).ok());
  Database db4;
  EXPECT_FALSE(
      LoadDatabaseText("relation R\nschema x: rational wiggly\n", &db4).ok());
}

TEST(DataParserTest, LoadsHurricaneFile) {
  Database db;
  Status s = LoadDatabaseFile(std::string(CCDB_DATA_DIR) +
                                  "/hurricane/hurricane.cdb",
                              &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(db.Has("Land"));
  EXPECT_TRUE(db.Has("Landownership"));
  EXPECT_TRUE(db.Has("Hurricane"));
  EXPECT_TRUE(db.Has("HurricanePath"));
  EXPECT_EQ(db.Get("Land").value()->size(), 4u);
  EXPECT_EQ(db.Get("Landownership").value()->size(), 6u);
  EXPECT_EQ(db.Get("Hurricane").value()->size(), 2u);
  // The hurricane is at (1, 3/2) at t = 4.
  EXPECT_TRUE(db.Get("Hurricane").value()->ContainsPoint(
      {{}, {{"t", Rational(4)}, {"x", Rational(1)}, {"y", Rational(3, 2)}}}));
}

// --- Query language ----------------------------------------------------------------

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Status s = LoadDatabaseFile(std::string(CCDB_DATA_DIR) +
                                    "/hurricane/hurricane.cdb",
                                &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  Database db_;
};

TEST_F(QueryTest, Query1WhoOwnedLandAAndWhen) {
  // The paper's Query 1 verbatim (modulo quoting style).
  auto rel = RunQuery(
      "R0 = select landId = A from Landownership\n"
      "R1 = project R0 on name, t\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->ContainsPoint(
      {{{"name", Value::String("Smith")}}, {{"t", Rational(3)}}}));
  EXPECT_TRUE(rel->ContainsPoint(
      {{{"name", Value::String("Jones")}}, {{"t", Rational(7)}}}));
  EXPECT_FALSE(rel->ContainsPoint(
      {{{"name", Value::String("Jones")}}, {{"t", Rational(3)}}}));
}

TEST_F(QueryTest, Query2LandsTheHurricanePassed) {
  auto rel = RunQuery(
      "R0 = join Hurricane and Land\n"
      "R1 = project R0 on landId\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  std::set<std::string> ids;
  for (const Tuple& t : rel->tuples()) {
    ids.insert(t.GetValue("landId").AsString());
  }
  // The path crosses A diagonally, exits through D; it touches the shared
  // corner (2,2), which lies in all four closed parcels.
  EXPECT_EQ(ids, (std::set<std::string>{"A", "B", "C", "D"}));
}

TEST_F(QueryTest, Query3WhoseLandWasHitBetween4And9) {
  auto rel = RunQuery(
      "R0 = join Landownership and Land\n"
      "R1 = select t >= 4, t <= 9 from Hurricane\n"
      "R2 = join R0 and R1\n"
      "R3 = project R2 on name\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  std::set<std::string> names;
  for (const Tuple& t : rel->tuples()) {
    names.insert(t.GetValue("name").AsString());
  }
  // t in [4,5]: hurricane in A (Smith owns through t=5; Jones from t=5 —
  // the instant t=5 itself is shared). At t=5 it touches the corner of all
  // parcels (B: Jones, C: Brown, D: Davis). t in [5,8]: inside D
  // (Davis through t=7, Smith from t=7).
  EXPECT_EQ(names,
            (std::set<std::string>{"Smith", "Jones", "Brown", "Davis"}));
}

TEST_F(QueryTest, Query4WhereWasTheHurricaneAtTime6) {
  auto rel = RunQuery(
      "R0 = select t = 6 from Hurricane\n"
      "R1 = project R0 on x, y\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel->size(), 1u);
  // Segment 2 at t = 6: 3x = 8, y = x.
  EXPECT_TRUE(rel->ContainsPoint(
      {{}, {{"x", Rational(8, 3)}, {"y", Rational(8, 3)}}}));
  EXPECT_FALSE(rel->ContainsPoint(
      {{}, {{"x", Rational(1)}, {"y", Rational(1)}}}));
}

TEST_F(QueryTest, Query5ParcelsNearTheHurricanePath) {
  // Whole-feature operators from the language: parcels within distance 1/2
  // of the trajectory (all four touch it: distance 0) and 2-nearest.
  auto rel = RunQuery(
      "R0 = buffer-join LandFeatures and HurricanePath within 1/2\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 4u);

  auto knn = RunQuery(
      "R0 = k-nearest HurricanePath and LandFeatures k 2\n",
      &db_);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_EQ(knn->size(), 2u);
}

TEST_F(QueryTest, SelectThenJoinKeepsOneBoundPerSide) {
  // Select conjoins x >= 2 and x <= 8 with each parcel's x bounds, and the
  // join conjoins the ownership's t bounds: each store keeps only the
  // tightest bound per variable and side.
  auto rel = RunQuery(
      "R0 = select x >= 2, x <= 8 from Land\n"
      "R1 = join R0 and Landownership\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel->size(), 6u);
  for (const Tuple& tuple : rel->tuples()) {
    std::set<std::pair<std::string, int>> sides;
    for (const Constraint& c : tuple.constraints().constraints()) {
      if (c.op() == ConstraintOp::kEq || c.expr().terms().size() != 1) {
        continue;
      }
      const auto& [var, coeff] = *c.expr().terms().begin();
      EXPECT_TRUE(sides.emplace(var, coeff.Sign()).second)
          << tuple.constraints().ToString();
    }
    EXPECT_EQ(sides.size(), 6u) << tuple.constraints().ToString();
  }
  const Tuple& smith_a = rel->tuples()[0];
  EXPECT_EQ(smith_a.GetValue("landId").AsString(), "A");
  EXPECT_EQ(smith_a.constraints().ToString(),
            "-t <= 0 AND t <= 5 AND -x <= -2 AND x <= 2 AND -y <= 0 AND "
            "y <= 2");
}

TEST_F(QueryTest, UnionMinusRenameRoundTrip) {
  auto rel = RunQuery(
      "R0 = select landId = A from Land\n"
      "R1 = select landId = B from Land\n"
      "R2 = union R0 and R1\n"
      "R3 = minus R2 and R1\n"
      "R4 = rename x to easting in R3\n"
      "R5 = project R4 on landId\n",
      &db_);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->tuples()[0].GetValue("landId").AsString(), "A");
}

TEST_F(QueryTest, ErrorsCarryLineNumbers) {
  auto bad = ExecuteScript("R0 = select t >= 4 from Hurricane\n"
                           "R1 = frobnicate R0 and R0\n",
                           &db_);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);

  auto missing = ExecuteScript("R0 = join NoSuch and Land\n", &db_);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  EXPECT_FALSE(ExecuteScript("", &db_).ok()) << "empty script";
  EXPECT_FALSE(ExecuteScript("R0 = select t >= 4 from Hurricane extra\n",
                             &db_)
                   .ok())
      << "trailing tokens rejected";

  // Type errors are found as each statement compiles, so they carry the
  // line of the offending statement too.
  auto mismatch = ExecuteScript("R0 = select landId = A from Land\n"
                                "R1 = select t >= 4 from Hurricane\n"
                                "R2 = union R0 and R1\n",
                                &db_);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mismatch.status().message().rfind(
                "line 3: union requires identical schemas", 0),
            0u)
      << mismatch.status().ToString();

  auto unknown = ExecuteScript("R0 = select t >= 4 from Hurricane\n"
                               "R1 = join R0 and NoSuch\n",
                               &db_);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.status().message().rfind("line 2: ", 0), 0u)
      << unknown.status().ToString();
  EXPECT_FALSE(db_.Has("R0")) << "a failed script registers nothing";
}

TEST_F(QueryTest, OnlyTheFinalStepIsRegistered) {
  auto last = ExecuteScript("R0 = select t >= 4 from Hurricane\n"
                            "R1 = project R0 on x, y\n",
                            &db_);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(*last, "R1");
  EXPECT_TRUE(db_.Has("R1"));
  EXPECT_FALSE(db_.Has("R0")) << "intermediate steps are script-local";
  // A later script builds on the registered final step.
  auto next = RunQuery("R2 = select x >= 1 from R1\n", &db_);
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

/// Product needs disjoint schemas and intersect identical ones; both
/// compile to a natural join, so the checks must happen at compile time —
/// on every path that runs a script.
struct SchemaRuleCase {
  const char* script;
  bool ok;
  size_t size;  ///< result cardinality when ok
};

const SchemaRuleCase kSchemaRuleCases[] = {
    {"R0 = product Land and Land", false, 0},
    {"R0 = intersect Land and Hurricane", false, 0},
    {"R0 = project Landownership on name\nR1 = product R0 and Land", true,
     16},
    {"R0 = select landId = A from Land\nR1 = intersect R0 and Land", true,
     1},
};

TEST_F(QueryTest, ProductAndIntersectCheckSchemasWhenExecuted) {
  for (const SchemaRuleCase& c : kSchemaRuleCases) {
    Database db = db_;
    auto rel = RunQuery(c.script, &db);
    if (!c.ok) {
      ASSERT_FALSE(rel.ok()) << c.script << " returned " << rel->size();
      EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(rel.status().message().find("requires"), std::string::npos)
          << rel.status().ToString();
      continue;
    }
    ASSERT_TRUE(rel.ok()) << c.script << ": " << rel.status().ToString();
    EXPECT_EQ(rel->size(), c.size) << c.script;
  }
}

TEST_F(QueryTest, ProductAndIntersectCheckSchemasWhenTraced) {
  service::QueryService svc(&db_, {});
  const service::SessionId session = svc.OpenSession();
  for (const SchemaRuleCase& c : kSchemaRuleCases) {
    auto traced = svc.Trace(session, c.script);
    auto executed = svc.Execute(session, c.script);
    ASSERT_EQ(traced.ok(), c.ok) << c.script << ": "
                                 << traced.status().ToString();
    EXPECT_EQ(executed.status().code(), traced.status().code()) << c.script;
    if (!c.ok) continue;
    EXPECT_EQ(traced->response.relation.size(), c.size) << c.script;
    EXPECT_EQ(executed->relation.ToString(),
              traced->response.relation.ToString());
  }
}


TEST_F(QueryTest, NormalizeStatementCompactsResults) {
  // [0,10] minus [3,5] yields two pieces plus strict bounds; union with the
  // original interval makes the pieces redundant; normalize collapses them.
  Database db;
  Status s = lang::LoadDatabaseText(
      "relation R\n"
      "schema t: rational constraint\n"
      "tuple t >= 0, t <= 10\n"
      "relation S\n"
      "schema t: rational constraint\n"
      "tuple t >= 3, t <= 5\n",
      &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto rel = RunQuery(
      "R0 = minus R and S\n"
      "R1 = union R0 and R\n"
      "R2 = normalize R1\n",
      &db);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 1u) << rel->ToString();
  EXPECT_TRUE(rel->ContainsPoint({{}, {{"t", Rational(4)}}}));
  EXPECT_FALSE(rel->ContainsPoint({{}, {{"t", Rational(11)}}}));
}

TEST_F(QueryTest, StepsCanBeRedefined) {
  auto rel = RunQuery(
      "R0 = select t >= 4 from Hurricane\n"
      "R0 = select t >= 7 from R0\n",
      &db_);
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel->ContainsPoint(
      {{}, {{"t", Rational(5)}, {"x", Rational(2, 3)},
            {"y", Rational(2)}}}));
}

// --- Canonicalization & input analysis (service cache-key support) ---------------

TEST(CanonicalizeTest, NormalizesWhitespaceCommentsAndSymbols) {
  auto canon = CanonicalizeScript(
      "# query 3\n"
      "\n"
      "  R0   =  select t>=4 ,t<=9 from   Hurricane   # trailing\n"
      "R1 = select name <> \"Smith\" from R0\n");
  ASSERT_TRUE(canon.ok()) << canon.status().ToString();
  EXPECT_EQ(*canon,
            "R0 = select t >= 4 , t <= 9 from Hurricane\n"
            "R1 = select name != \"Smith\" from R0");

  // Equal canonical text regardless of the original spacing.
  auto respaced = CanonicalizeScript(
      "R0 = select t >= 4, t <= 9 from Hurricane\n"
      "R1 = select name != \"Smith\" from R0");
  ASSERT_TRUE(respaced.ok());
  EXPECT_EQ(*canon, *respaced);

  // Identifier case is preserved (names are case-sensitive).
  auto cased = CanonicalizeScript("R0 = select t >= 4 from hurricane");
  ASSERT_TRUE(cased.ok());
  EXPECT_NE(*canon, *cased);

  EXPECT_FALSE(CanonicalizeScript("R0 = select x @ y").ok());
}

TEST(ScriptInputsTest, ExcludesStepsDefinedEarlier) {
  auto inputs = ScriptInputs(
      "R0 = join Landownership and Land\n"
      "R1 = select t >= 4, t <= 9 from Hurricane\n"
      "R2 = join R0 and R1\n"
      "R3 = project R2 on name\n");
  ASSERT_TRUE(inputs.ok()) << inputs.status().ToString();
  auto has = [&](const std::string& name) {
    return std::find(inputs->begin(), inputs->end(), name) != inputs->end();
  };
  EXPECT_TRUE(has("Landownership"));
  EXPECT_TRUE(has("Land"));
  EXPECT_TRUE(has("Hurricane"));
  EXPECT_FALSE(has("R0")) << "steps defined by the script are not inputs";
  EXPECT_FALSE(has("R1"));
  EXPECT_FALSE(has("R2"));
  // Over-approximation: keywords and attributes may appear; callers filter
  // by catalog membership.
  EXPECT_TRUE(has("name"));
}

TEST(ScriptInputsTest, SelfReferenceBeforeDefinitionIsAnInput) {
  auto inputs = ScriptInputs("R0 = select t >= 7 from R0");
  ASSERT_TRUE(inputs.ok());
  EXPECT_NE(std::find(inputs->begin(), inputs->end(), "R0"), inputs->end())
      << "reading a base relation the step then shadows counts as an input";
}

}  // namespace
}  // namespace ccdb::lang
