// Edge-case coverage across modules: parser oddities, engine options,
// round statistics, query shapes, ToString formats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/gdb/serialize.h"
#include "src/parser/parser.h"
#include "src/templog/templog.h"
#include "tests/ground_oracle.h"

namespace lrpdb {
namespace {

TEST(RoundStatsTest, Example41RoundShape) {
  Database db;
  auto unit = Parse(R"(
    .decl course(time, time, data)
    .decl problems(time, time, data)
    .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
    problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
    problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rounds.size(), 8u);
  // Rounds 1..7 insert one tuple each; round 8 inserts nothing.
  for (int r = 0; r < 7; ++r) {
    EXPECT_EQ(result->rounds[r].round, r + 1);
    EXPECT_EQ(result->rounds[r].inserted, 1) << "round " << r + 1;
    EXPECT_EQ(result->rounds[r].new_free_extensions, 1) << "round " << r + 1;
  }
  EXPECT_EQ(result->rounds[7].inserted, 0);
  EXPECT_GE(result->rounds[7].candidates, 1);  // The subsumed 8th tuple.
}

TEST(RoundStatsTest, StrataAreRecorded) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl p(time)
    .decl q(time)
    .fact e(4n).
    p(t) :- e(t).
    q(t) :- e(t), !p(t + 1).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_stratum_0 = false;
  bool saw_stratum_1 = false;
  for (const RoundStats& stats : result->rounds) {
    saw_stratum_0 = saw_stratum_0 || stats.stratum == 0;
    saw_stratum_1 = saw_stratum_1 || stats.stratum == 1;
  }
  EXPECT_TRUE(saw_stratum_0);
  EXPECT_TRUE(saw_stratum_1);
}

TEST(EvaluatorOptionsTest, MaxIterationsStopsEarly) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl p(time)
    .fact e(97n).
    p(t) :- e(t).
    p(t + 1) :- p(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EvaluationOptions options;
  options.max_iterations = 5;
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->reached_fixpoint);
  EXPECT_EQ(result->iterations, 5);
  EXPECT_NE(result->gave_up_reason.find("max_iterations"),
            std::string::npos);
}

// --- Pinned closed forms ---

// The Example 4.1 consult shape: each pair meets twice a week, 24 hours
// apart, so its two 48-hour consult chains together fill one residue class
// mod 24. The closed form keeps that class as the rounds derived it, 7
// period-168 tuples; the pair that meets once has a 7-tuple chain of its
// own, and `lecture` copies `advises`.
std::string ConsultProgram(int double_pairs) {
  std::string source = R"(
    .decl advises(time, data, data)
    .decl consult(time, data, data)
    .decl lecture(time, data, data)
    lecture(t, P, S) :- advises(t, P, S).
    consult(t + 2, P, S) :- advises(t, P, S).
    consult(t + 48, P, S) :- consult(t, P, S).
    .fact advises(168n+14, "cy", "dee") with T1 >= 0.
  )";
  for (int i = 0; i < double_pairs; ++i) {
    const std::string pair =
        "\"p" + std::to_string(i) + "\", \"s" + std::to_string(i) + "\"";
    const int hour = 1 + i % 20;
    source += ".fact advises(168n+" + std::to_string(hour) + ", " + pair +
              ") with T1 >= 0.\n";
    source += ".fact advises(168n+" + std::to_string(hour + 24) + ", " +
              pair + ") with T1 >= 0.\n";
  }
  return source;
}

// Two temporal columns: four rules derive the four residue pairs mod 4,
// which together cover (2n, 2n).
constexpr char kTwoColumnProgram[] = R"(
  .decl e(time, time)
  .decl p(time, time)
  .fact e(4n, 4n) with T1 >= 0, T2 >= 0.
  p(t1, t2) :- e(t1, t2).
  p(t1 + 2, t2) :- e(t1, t2).
  p(t1, t2 + 2) :- e(t1, t2).
  p(t1 + 2, t2 + 2) :- e(t1, t2).
)";

struct SourceRun {
  std::unique_ptr<Database> db;
  std::unique_ptr<ParsedUnit> unit;
  EvaluationResult result;
};

SourceRun EvaluateSource(const std::string& source) {
  SourceRun run;
  run.db = std::make_unique<Database>();
  auto unit = Parse(source, run.db.get());
  EXPECT_TRUE(unit.ok()) << unit.status();
  run.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  auto result = Evaluate(run.unit->program, *run.db);
  EXPECT_TRUE(result.ok()) << result.status();
  run.result = std::move(*result);
  return run;
}

void ExpectConsistentStores(const EvaluationResult& result) {
  for (const auto& [name, relation] : result.idb) {
    EXPECT_TRUE(relation.CheckConsistency().ok()) << name;
  }
}

TEST(ClosedFormTest, ConsultShapeMatchesGroundOracle) {
  SourceRun run = EvaluateSource(ConsultProgram(3));
  ASSERT_TRUE(run.result.reached_fixpoint);
  // The single pair's chain plus 7 tuples per double pair.
  EXPECT_EQ(run.result.Relation("consult").size(), 7u + 3 * 7);
  EXPECT_EQ(run.result.Relation("lecture").size(), 1u + 3 * 2);
  ExpectConsistentStores(run.result);
  ExpectMatchesGroundOracle(run.unit->program, *run.db, run.result, 0, 504,
                            0, 1008);
}

TEST(ClosedFormTest, TwoColumnProgramMatchesGroundOracle) {
  SourceRun run = EvaluateSource(kTwoColumnProgram);
  ASSERT_TRUE(run.result.reached_fixpoint);
  // One tuple per rule, in rule order; each shift raises its lower bound.
  EXPECT_EQ(run.result.Relation("p").ToString(),
            "(4n, 4n) with 0 - T1 <= 0 & 0 - T2 <= 0\n"
            "(4n+2, 4n) with 0 - T1 <= -2 & 0 - T2 <= 0\n"
            "(4n, 4n+2) with 0 - T1 <= 0 & 0 - T2 <= -2\n"
            "(4n+2, 4n+2) with 0 - T1 <= -2 & 0 - T2 <= -2\n");
  ExpectConsistentStores(run.result);
  ExpectMatchesGroundOracle(run.unit->program, *run.db, run.result, 0, 16,
                            0, 32);
}

// Evaluation is a pure function of the program and database: repeated
// evaluations agree on the timing-free EXPLAIN and on every relation in
// stored order.
TEST(ClosedFormTest, RepeatedEvaluationsAgree) {
  auto fingerprint = [](const std::string& source) {
    SourceRun run = EvaluateSource(source);
    std::string out = run.result.Explain(false);
    for (const auto& [name, relation] : run.result.idb) {
      out += name + ":\n" + relation.ToString();
    }
    return out;
  };
  for (const std::string& source :
       {ConsultProgram(40), std::string(kTwoColumnProgram)}) {
    EXPECT_EQ(fingerprint(source), fingerprint(source));
  }
}

TEST(QueryAtomTest, RepeatedVariableSelectsDiagonal) {
  Database db;
  auto unit = Parse(R"(
    .decl pair(time, time)
    .decl copy(time, time)
    .fact pair(3n, 3n).
    copy(t1, t2) :- pair(t1, t2).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // ?- copy(s, s): only the diagonal.
  PredicateAtom query;
  query.predicate = unit->program.predicates().Find("copy");
  SymbolId s = unit->program.variables().Intern("s");
  query.temporal_args = {TemporalTerm::Variable(s),
                         TemporalTerm::Variable(s)};
  auto answers = QueryAtom(unit->program, db, *result, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->schema().temporal_arity, 1);
  for (int64_t t = -9; t <= 9; ++t) {
    EXPECT_EQ(answers->ContainsGround({t}, {}), FloorMod(t, 3) == 0) << t;
  }
}

TEST(QueryAtomTest, OffsetInQueryTerm) {
  Database db;
  auto unit = Parse(R"(
    .decl tick(time)
    .decl echo(time)
    .fact tick(5n).
    echo(t) :- tick(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // ?- echo(s + 2): s such that s + 2 is a tick, i.e. s in 5n + 3.
  PredicateAtom query;
  query.predicate = unit->program.predicates().Find("echo");
  SymbolId s = unit->program.variables().Intern("s");
  query.temporal_args = {TemporalTerm::Variable(s, 2)};
  auto answers = QueryAtom(unit->program, db, *result, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  for (int64_t t = -15; t <= 15; ++t) {
    EXPECT_EQ(answers->ContainsGround({t}, {}), FloorMod(t + 2, 5) == 0)
        << t;
  }
}

TEST(ParserEdgeTest, CommentsAndWhitespaceEverywhere) {
  Database db;
  auto unit = Parse(
      "% leading comment\n"
      ".decl p(time) // trailing\n"
      ".fact p( 7n + 3 ) . % post-fact\n"
      "// done\n",
      &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto relation = db.Relation("p");
  EXPECT_TRUE((*relation)->ContainsGround({3}, {}));
}

TEST(ParserEdgeTest, NegativeOffsetsInRules) {
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl before(time)
    .fact e(6n).
    before(t - 2) :- e(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  for (int64_t t = -12; t <= 12; ++t) {
    EXPECT_EQ(result->Relation("before").ContainsGround({t}, {}),
              FloorMod(t + 2, 6) == 0)
        << t;
  }
}

TEST(ParserEdgeTest, MultipleQueriesCollected) {
  Database db;
  auto unit = Parse(R"(
    .decl a(time)
    .fact a(2n).
    ?- a(t).
    ?- a(5).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->queries.size(), 2u);
  EXPECT_TRUE(unit->queries[1].temporal_args[0].is_constant());
}

TEST(TemplogEdgeTest, ZeroArityAndChainedNext) {
  auto program = ParseTemplog(R"(
    next next next heartbeat.
    always next^2 heartbeat :- heartbeat.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->clauses[0].head.next_count, 3);
  Database db;
  auto translated = TranslateToDatalog1S(*program, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  // heartbeat at 3, 5, 7, ...
}

TEST(SerializeEdgeTest, ZeroArityRelationRoundTrips) {
  Database db;
  auto unit = Parse(R"(
    .decl flag()
    .fact flag().
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::string text = SerializeDatabase(db);
  Database reloaded;
  auto reparsed = Parse(text, &reloaded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  auto relation = reloaded.Relation("flag");
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ((*relation)->size(), 1u);
}

TEST(ToStringTest, TupleAndRelationFormats) {
  Interner interner;
  DataValue city = interner.Intern("liege");
  Dbm c(2);
  c.AddLowerBound(1, 0);
  c.AddDifferenceEquality(2, 1, 60);
  GeneralizedTuple t({Lrp(40, 5), Lrp(40, 65)}, {city}, c);
  std::string s = t.ToString(&interner);
  EXPECT_NE(s.find("40n+5"), std::string::npos) << s;
  EXPECT_NE(s.find("liege"), std::string::npos) << s;
  EXPECT_NE(s.find("with"), std::string::npos) << s;
  // Without an interner, data prints as #id.
  std::string anonymous = t.ToString();
  EXPECT_NE(anonymous.find("#"), std::string::npos) << anonymous;
}

}  // namespace
}  // namespace lrpdb
