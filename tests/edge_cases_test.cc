// Edge-case coverage across modules: parser oddities, engine options,
// round statistics, query shapes, ToString formats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
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

TEST(EvaluatorOptionsTest, CompactionShrinksRepresentation) {
  // Two rules deriving complementary residue classes of the same period;
  // compaction merges them into one coarse tuple.
  Database db;
  auto unit = Parse(R"(
    .decl e(time)
    .decl p(time)
    .fact e(4n).
    p(t) :- e(t).
    p(t + 2) :- e(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EvaluationOptions compact;
  compact.compact_results = true;
  auto compacted = Evaluate(unit->program, db, compact);
  ASSERT_TRUE(compacted.ok());
  EvaluationOptions raw;
  raw.compact_results = false;
  auto uncompacted = Evaluate(unit->program, db, raw);
  ASSERT_TRUE(uncompacted.ok());
  EXPECT_LT(compacted->Relation("p").size(),
            uncompacted->Relation("p").size());
  for (int64_t t = -12; t <= 12; ++t) {
    EXPECT_EQ(compacted->Relation("p").ContainsGround({t}, {}),
              FloorMod(t, 2) == 0)
        << t;
    EXPECT_EQ(uncompacted->Relation("p").ContainsGround({t}, {}),
              FloorMod(t, 2) == 0)
        << t;
  }
}

// --- Result compaction ---

// The Example 4.1 consult shape: each pair meets twice a week, 24 hours
// apart, so the two 48-hour consult chains fill one residue class mod 24
// and compact to a single tuple per pair. A third pair meets once and its
// chain stays split; `lecture` never merges.
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

// Two temporal columns: four residue pairs mod 4 merge column by column
// into the single tuple (2n, 2n).
constexpr char kTwoColumnProgram[] = R"(
  .decl e(time, time)
  .decl p(time, time)
  .fact e(4n, 4n) with T1 >= 0, T2 >= 0.
  p(t1, t2) :- e(t1, t2).
  p(t1 + 2, t2) :- e(t1, t2).
  p(t1, t2 + 2) :- e(t1, t2).
  p(t1 + 2, t2 + 2) :- e(t1, t2).
)";

struct CompactionRun {
  std::unique_ptr<Database> db;
  std::unique_ptr<ParsedUnit> unit;
  EvaluationResult result;
};

CompactionRun EvaluateSource(const std::string& source,
                             EvaluationOptions options) {
  CompactionRun run;
  run.db = std::make_unique<Database>();
  auto unit = Parse(source, run.db.get());
  EXPECT_TRUE(unit.ok()) << unit.status();
  run.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  auto result = Evaluate(run.unit->program, *run.db, options);
  EXPECT_TRUE(result.ok()) << result.status();
  run.result = std::move(*result);
  return run;
}

EvaluationOptions CompactOptions(bool compact) {
  EvaluationOptions options;
  options.compact_results = compact;
  return options;
}

// The tuples the fixpoint charges to an ExecContext, without compaction.
int64_t FixpointInserts(const std::string& source) {
  ExecContext exec;
  EvaluationOptions options = CompactOptions(false);
  options.exec = &exec;
  EvaluateSource(source, options);
  return exec.tuples_charged();
}

void ExpectConsistentStores(const EvaluationResult& result) {
  for (const auto& [name, relation] : result.idb) {
    EXPECT_TRUE(relation.store().CheckConsistency().ok()) << name;
  }
}

TEST(ResultCompactionTest, ConsultShapeMergesAndMatchesGroundOracle) {
  const std::string source = ConsultProgram(3);
  CompactionRun raw = EvaluateSource(source, CompactOptions(false));
  CompactionRun compacted = EvaluateSource(source, CompactOptions(true));
  ASSERT_TRUE(compacted.result.reached_fixpoint);
  // Each double pair's 7 chain tuples become one 24n tuple.
  EXPECT_EQ(raw.result.Relation("consult").size(), 7u + 3 * 7);
  EXPECT_EQ(compacted.result.Relation("consult").size(), 7u + 3);
  ExpectConsistentStores(compacted.result);
  ExpectMatchesGroundOracle(compacted.unit->program, *compacted.db,
                            compacted.result, 0, 504, 0, 1008);
}

TEST(ResultCompactionTest, TwoColumnMergeMatchesGroundOracle) {
  CompactionRun compacted =
      EvaluateSource(kTwoColumnProgram, CompactOptions(true));
  ASSERT_TRUE(compacted.result.reached_fixpoint);
  const GeneralizedRelation& p = compacted.result.Relation("p");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.tuple(0).lrp(0), Lrp(2, 0));
  EXPECT_EQ(p.tuple(0).lrp(1), Lrp(2, 0));
  ExpectConsistentStores(compacted.result);
  ExpectMatchesGroundOracle(compacted.unit->program, *compacted.db,
                            compacted.result, 0, 16, 0, 32);
}

TEST(ResultCompactionTest, UnmergedEntriesKeepTheirOrder) {
  const std::string source = ConsultProgram(3);
  CompactionRun raw = EvaluateSource(source, CompactOptions(false));
  CompactionRun compacted = EvaluateSource(source, CompactOptions(true));
  // A relation with no merge is left exactly as the fixpoint stored it.
  EXPECT_EQ(compacted.result.Relation("lecture").ToString(),
            raw.result.Relation("lecture").ToString());
  // In a relation that merges, the survivors keep their order and the
  // merged tuples follow them.
  const GeneralizedRelation& before = raw.result.Relation("consult");
  const GeneralizedRelation& after = compacted.result.Relation("consult");
  std::vector<std::string> survivors;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before.tuple(i).lrp(0).period() == 168 &&
        before.tuple(i).data() == before.tuple(0).data()) {
      survivors.push_back(before.tuple(i).ToString());
    }
  }
  ASSERT_EQ(survivors.size(), 7u);
  for (size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(after.tuple(i).ToString(), survivors[i]) << i;
  }
  for (size_t i = survivors.size(); i < after.size(); ++i) {
    EXPECT_EQ(after.tuple(i).lrp(0).period(), 24) << i;
  }
}

// Compaction is a pure function of the model: repeated evaluations agree
// on the timing-free EXPLAIN and on every relation in stored order. (The
// name predates the removal of the thread-count grid.)
TEST(ResultCompactionTest, IdenticalAcrossThreadCounts) {
  auto fingerprint = [](const std::string& source) {
    CompactionRun run = EvaluateSource(source, CompactOptions(true));
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

TEST(ResultCompactionTest, ChargesOnlyTheTuplesItAdds) {
  // Compaction adds one merged tuple here, so a budget of the fixpoint's
  // inserts plus one is enough.
  const std::string source = ConsultProgram(1);
  const int64_t fixpoint_inserts = FixpointInserts(source);
  ExecContext exec;
  exec.set_tuple_budget(fixpoint_inserts + 1);
  exec.set_poll_stride(1);  // Every poll checks the budget.
  EvaluationOptions options = CompactOptions(true);
  options.exec = &exec;
  CompactionRun run = EvaluateSource(source, options);
  EXPECT_FALSE(run.result.partial.tripped()) << run.result.partial.reason;
  EXPECT_TRUE(run.result.reached_fixpoint);
  EXPECT_EQ(run.result.Relation("consult").size(), 7u + 1);
  EXPECT_EQ(exec.tuples_charged(), fixpoint_inserts + 1);
}

TEST(ResultCompactionTest, LargeModelCompactsWithinBudgetOfItsMerges) {
  // 40 merges over a model of several hundred tuples: re-charging the
  // whole model would blow a budget of fixpoint inserts plus merges.
  const std::string source = ConsultProgram(40);
  const int64_t fixpoint_inserts = FixpointInserts(source);
  ExecContext exec;
  exec.set_tuple_budget(fixpoint_inserts + 40);
  exec.set_poll_stride(1);
  EvaluationOptions options = CompactOptions(true);
  options.exec = &exec;
  Database db;
  auto unit = Parse(source, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->partial.tripped()) << result->partial.reason;
  EXPECT_EQ(result->Relation("consult").size(), 7u + 40);
}

// A trip at any point of compaction leaves the complete model: the
// fixpoint was reached, and every relation still denotes the ground model.
void ExpectCompleteAfterTrip(const EvaluationResult& partial,
                             const Program& program, const Database& db) {
  EXPECT_TRUE(partial.partial.tripped());
  EXPECT_TRUE(partial.reached_fixpoint);
  ExpectConsistentStores(partial);
  ExpectMatchesGroundOracle(program, db, partial, 0, 504, 0, 1008);
}

TEST(ResultCompactionTest, InjectedTripInCoalesceKeepsTheFullModel) {
  const std::string source = ConsultProgram(3);
  CompactionRun raw = EvaluateSource(source, CompactOptions(false));
  failpoint::DisarmAll();
  failpoint::Arm("algebra.coalesce", failpoint::Mode::kTripBudget);
  ExecContext exec;
  EvaluationOptions options = CompactOptions(true);
  options.exec = &exec;
  Database db;
  auto unit = Parse(source, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db, options);
  failpoint::DisarmAll();
  ASSERT_TRUE(result.ok()) << result.status();
  const EvaluationResult& partial = *result;
  EXPECT_EQ(partial.partial.trip, StatusCode::kResourceExhausted);
  EXPECT_NE(partial.partial.reason.find("algebra.coalesce"),
            std::string::npos);
  // The trip came before any store changed: the uncompacted model, whole.
  for (const auto& [name, relation] : raw.result.idb) {
    EXPECT_EQ(partial.Relation(name).ToString(), relation.ToString()) << name;
  }
  ExpectCompleteAfterTrip(partial, unit->program, db);
}

TEST(ResultCompactionTest, BudgetTripMidCompactionKeepsTheFullModel) {
  // A budget of one tuple past the fixpoint trips while the 40 merged
  // tuples are inserted, before any member is removed.
  const std::string source = ConsultProgram(40);
  CompactionRun raw = EvaluateSource(source, CompactOptions(false));
  const int64_t fixpoint_inserts = FixpointInserts(source);
  ExecContext exec;
  exec.set_tuple_budget(fixpoint_inserts + 1);
  exec.set_poll_stride(1);
  EvaluationOptions options = CompactOptions(true);
  options.exec = &exec;
  Database db;
  auto unit = Parse(source, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const EvaluationResult& partial = *result;
  EXPECT_EQ(partial.partial.trip, StatusCode::kResourceExhausted);
  EXPECT_GE(partial.Relation("consult").size(),
            raw.result.Relation("consult").size());
  EXPECT_EQ(partial.Relation("lecture").ToString(),
            raw.result.Relation("lecture").ToString());
  ExpectCompleteAfterTrip(partial, unit->program, db);
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
