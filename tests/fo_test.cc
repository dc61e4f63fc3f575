#include "src/fo/fo.h"

#include <gtest/gtest.h>

#include "src/parser/parser.h"

namespace lrpdb {
namespace {

// The train database of Example 2.1 plus a meetings relation.
Database TrainDb() {
  Database db;
  auto unit = Parse(R"(
    .decl train(time, time, data, data)
    .fact train(40n+5, 40n+65, "liege", "brussels")
        with T1 >= 0, T2 = T1 + 60.
    .fact train(60n+20, 60n+50, "brussels", "antwerp")
        with T1 >= 0, T2 = T1 + 30.
    .decl meeting(time, data)
    .fact meeting(85, "brussels").
  )",
            &db);
  LRPDB_CHECK(unit.ok()) << unit.status();
  return db;
}

TEST(FoTest, AtomSelectionAndProjection) {
  Database db = TrainDb();
  auto query = ParseFoQuery(R"(train(t1, t2, "liege", "brussels"))", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->temporal_vars, (std::vector<std::string>{"t1", "t2"}));
  EXPECT_TRUE(result->relation.ContainsGround({45, 105}, {}));
  EXPECT_FALSE(result->relation.ContainsGround({45, 106}, {}));
}

TEST(FoTest, AtomWithOffsetTerm) {
  Database db = TrainDb();
  // Departure one minute before t: t such that train departs at t - 1.
  auto query = ParseFoQuery(
      R"(exists t2 (train(t - 1, t2, "liege", "brussels")))", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->relation.ContainsGround({6}, {}));
  EXPECT_TRUE(result->relation.ContainsGround({46}, {}));
  EXPECT_FALSE(result->relation.ContainsGround({5}, {}));
}

TEST(FoTest, RepeatedVariableInAtom) {
  Database db;
  auto unit = Parse(R"(
    .decl p(time, time)
    .fact p(3n, 5n).
  )",
                    &db);
  ASSERT_TRUE(unit.ok());
  // p(t, t): the diagonal -- multiples of 15.
  auto query = ParseFoQuery("p(t, t)", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  for (int64_t t = -30; t <= 30; ++t) {
    EXPECT_EQ(result->relation.ContainsGround({t}, {}), FloorMod(t, 15) == 0)
        << t;
  }
}

TEST(FoTest, ConjunctionJoinsOnSharedVariables) {
  Database db = TrainDb();
  // Connections: arrive in brussels at t2, meeting at t3 with t2 <= t3.
  auto query = ParseFoQuery(
      R"(exists t1 (train(t1, t2, "liege", "brussels")) & meeting(t3, "brussels") & t2 <= t3)",
      &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->temporal_vars, (std::vector<std::string>{"t2", "t3"}));
  EXPECT_TRUE(result->relation.ContainsGround({65, 85}, {}));
  EXPECT_FALSE(result->relation.ContainsGround({105, 85}, {}));  // Too late.
}

TEST(FoTest, DataVariablesBindAcrossAtoms) {
  Database db = TrainDb();
  // Cities reachable from liege in one hop departing at t1.
  auto query = ParseFoQuery(
      R"(exists t2 (train(t1, t2, "liege", Where)))", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->data_vars, (std::vector<std::string>{"Where"}));
  DataValue brussels = db.interner().Find("brussels");
  EXPECT_TRUE(result->relation.ContainsGround({45}, {brussels}));
  DataValue antwerp = db.interner().Find("antwerp");
  EXPECT_FALSE(result->relation.ContainsGround({45}, {antwerp}));
}

TEST(FoTest, NegationComplementsOverZAndActiveDomain) {
  Database db;
  auto unit = Parse(R"(
    .decl on(time, data)
    .fact on(4n, "lamp") with T1 >= 0.
  )",
                    &db);
  ASSERT_TRUE(unit.ok());
  auto query = ParseFoQuery(R"(~on(t, D))", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  DataValue lamp = db.interner().Find("lamp");
  for (int64_t t = -20; t <= 20; ++t) {
    bool is_on = t >= 0 && t % 4 == 0;
    EXPECT_EQ(result->relation.ContainsGround({t}, {lamp}), !is_on) << t;
  }
}

// `~r(t, A, B, C, D)` over n constants ranges over n^4 data rows: the
// same 65,536-row budget as a negated body literal of a program, so 12
// constants (20,736 rows) answer and 17 (83,521) are refused.
TEST(FoTest, NegationDataUniverseHasARowBudget) {
  auto run = [](int constants, Database* db) {
    std::string source = ".decl r(time, data, data, data, data)\n";
    for (int i = 0; i < constants; ++i) {
      const std::string c = "\"c" + std::to_string(i) + "\"";
      source += ".fact r(" + std::to_string(i) + ", " + c + ", " + c + ", " +
                c + ", " + c + ").\n";
    }
    auto unit = Parse(source, db);
    LRPDB_CHECK(unit.ok()) << unit.status();
    auto query = ParseFoQuery("~r(t, A, B, C, D)", db);
    LRPDB_CHECK(query.ok()) << query.status();
    return EvaluateFoQuery(*query, *db);
  };
  Database small;
  auto answered = run(12, &small);
  ASSERT_TRUE(answered.ok()) << answered.status();
  const DataValue c0 = small.interner().Find("c0");
  const DataValue c11 = small.interner().Find("c11");
  EXPECT_FALSE(answered->relation.ContainsGround({0}, {c0, c0, c0, c0}));
  EXPECT_TRUE(answered->relation.ContainsGround({1}, {c0, c0, c0, c0}));
  EXPECT_TRUE(answered->relation.ContainsGround({0}, {c0, c11, c0, c11}));

  Database large;
  auto refused = run(17, &large);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status();
}

TEST(FoTest, DisjunctionExtendsColumns) {
  Database db;
  auto unit = Parse(R"(
    .decl a(time)
    .decl b(time)
    .fact a(2n).
    .fact b(3n).
  )",
                    &db);
  ASSERT_TRUE(unit.ok());
  auto query = ParseFoQuery("a(t) | b(t)", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  for (int64_t t = -18; t <= 18; ++t) {
    EXPECT_EQ(result->relation.ContainsGround({t}, {}),
              FloorMod(t, 2) == 0 || FloorMod(t, 3) == 0)
        << t;
  }
}

TEST(FoTest, ForallDesugarsToNegatedExists) {
  Database db;
  auto unit = Parse(R"(
    .decl tick(time)
    .decl tock(time)
    .fact tick(2n).
    .fact tock(2n).
  )",
                    &db);
  ASSERT_TRUE(unit.ok());
  // forall t (tick(t) -> tock(t)) expressed as forall t (~tick(t) | tock(t)).
  auto query = ParseFoQuery("forall t (~tick(t) | tock(t))", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // Sentence: 0-ary relation, non-empty == true.
  EXPECT_EQ(result->relation.schema().temporal_arity, 0);
  EXPECT_FALSE(result->relation.empty());

  // And a false sentence.
  Database db2;
  auto unit2 = Parse(R"(
    .decl tick(time)
    .decl tock(time)
    .fact tick(2n).
    .fact tock(4n).
  )",
                     &db2);
  ASSERT_TRUE(unit2.ok());
  auto query2 = ParseFoQuery("forall t (~tick(t) | tock(t))", &db2);
  ASSERT_TRUE(query2.ok()) << query2.status();
  auto result2 = EvaluateFoQuery(*query2, db2);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_TRUE(result2->relation.empty());
}

TEST(FoTest, ComparisonOnlyFormula) {
  Database db = TrainDb();
  auto query = ParseFoQuery("t1 < t2 + 3 & t2 <= 10", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->relation.ContainsGround({12, 10}, {}));
  EXPECT_FALSE(result->relation.ContainsGround({13, 10}, {}));
  EXPECT_FALSE(result->relation.ContainsGround({5, 11}, {}));
}

TEST(FoTest, NegationInsideConjunctionGuard) {
  Database db = TrainDb();
  // Trains to brussels NOT connecting to any meeting (meeting before
  // arrival counts as missed).
  auto query = ParseFoQuery(
      R"(train(t1, t2, "liege", "brussels") & ~(exists t3 (meeting(t3, "brussels") & t2 <= t3)))",
      &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // The only meeting is at 85: trains arriving at 65 make it; 105+ do not.
  EXPECT_FALSE(result->relation.ContainsGround({5, 65}, {}));
  EXPECT_TRUE(result->relation.ContainsGround({45, 105}, {}));
  EXPECT_TRUE(result->relation.ContainsGround({85, 145}, {}));
}

// A relation declared with .decl and given no fact reads as empty.
TEST(FoTest, DeclaredRelationWithoutFactsReadsAsEmpty) {
  Database db;
  auto unit = Parse(R"(
    .decl p(time, data)
    .decl q(time, data)
    .fact p(2n, "a").
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto query = ParseFoQuery("q(t, A)", &db);
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = EvaluateFoQuery(*query, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->relation.empty());
  auto either = ParseFoQuery("p(t, A) | q(t, A)", &db);
  ASSERT_TRUE(either.ok()) << either.status();
  auto answer = EvaluateFoQuery(*either, db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  const DataValue a = db.interner().Find("a");
  EXPECT_TRUE(answer->relation.ContainsGround({4}, {a}));
  EXPECT_FALSE(answer->relation.ContainsGround({5}, {a}));
}

TEST(FoTest, MixedVariableKindRejected) {
  Database db = TrainDb();
  auto query = ParseFoQuery(R"(train(X, t2, X, "brussels"))", &db);
  EXPECT_FALSE(query.ok());
}

TEST(FoTest, ParseErrors) {
  Database db = TrainDb();
  EXPECT_FALSE(ParseFoQuery("train(t1, t2", &db).ok());
  EXPECT_FALSE(ParseFoQuery("unknown(t)", &db).ok());
  EXPECT_FALSE(ParseFoQuery("t1 <", &db).ok());
  EXPECT_FALSE(ParseFoQuery("exists (p(t))", &db).ok());
  EXPECT_FALSE(ParseFoQuery("train(t1, t2, \"liege\", \"brussels\") extra",
                            &db)
                   .ok());
}

// The exact text of representative parse errors: each names its
// line:column and the token the parser stopped at.
TEST(FoTest, ErrorMessagesArePinned) {
  Database db;
  ASSERT_TRUE(db.Declare("q", RelationSchema{1, 1}).ok());
  struct Case {
    const char* source;
    const char* message;
  };
  const Case cases[] = {
      {"q(t + x, A)", "line 1:8: expected integer (at 'x')"},
      {"q(t, A) & q(A, t)",
       "line 1:15: variable 'A' used in both temporal and data positions "
       "(at ',')"},
      {"q(t, A) & t < ", "line 1:15: expected integer"},
      {"q(t, A) q(t, A)", "line 1:10: trailing input (at 'q')"},
      {"exists t (q(t, A)", "line 1:18: expected ')'"},
      {"q(t, A) & t < 3 #", "line 1:17: unexpected character '#'"},
  };
  for (const Case& c : cases) {
    auto query = ParseFoQuery(c.source, &db);
    ASSERT_FALSE(query.ok()) << c.source;
    EXPECT_EQ(query.status().code(), StatusCode::kParseError) << c.source;
    EXPECT_EQ(query.status().message(), c.message) << c.source;
  }
}

// A lexical error anywhere in the query is reported in preference to a
// parse error that comes before it.
TEST(FoTest, LexicalErrorAfterParseErrorWins) {
  Database db;
  ASSERT_TRUE(db.Declare("q", RelationSchema{1, 1}).ok());
  auto query = ParseFoQuery("q(t + x, A) & t < \"open", &db);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().message(), "line 1:24: unterminated string literal");
}

}  // namespace
}  // namespace lrpdb
