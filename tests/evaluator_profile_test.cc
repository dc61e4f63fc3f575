// Per-rule EXPLAIN profile (EvalProfile / Explain()): the counts are
// asserted against hand-computed fixpoints, so these tests double as an
// audit of the Theorem 4.2/4.3 termination bookkeeping.
#include <string>

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

// Example 4.1: course Monday 8-10 every week (period 168), problem sessions
// two hours later and every 48h thereafter.
constexpr char kExample41[] = R"(
  .decl course(time, time, data)
  .decl problems(time, time, data)
  .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
  problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
  problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
)";

// tick holds at 3n; quiet at tick times whose successor is not a tick time,
// i.e. all of 3n (t+1 = 3k+1 is never a tick). One stratum boundary.
constexpr char kTickQuiet[] = R"(
  .decl tick(time)
  .decl quiet(time)
  .fact tick(3n).
  quiet(t) :- tick(t), !tick(t + 1).
)";

TEST(EvalProfileTest, Example41PerRuleCountsMatchHandComputedFixpoint) {
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->reached_fixpoint);
  ASSERT_EQ(result->iterations, 8);

  const EvalProfile& profile = result->profile;
  ASSERT_EQ(profile.rules.size(), 2u);

  // Rule 0 (problems :- course): course is extensional, so the rule runs
  // only in the first full round and derives the single seed tuple
  // (offset 10, a new free extension).
  const RuleProfile& seed = profile.rules[0];
  EXPECT_EQ(seed.clause_index, 0);
  EXPECT_EQ(seed.head_predicate, "problems");
  EXPECT_EQ(seed.applications, 1);
  EXPECT_EQ(seed.derivations, 1);
  EXPECT_EQ(seed.inserted, 1);
  EXPECT_EQ(seed.subsumed, 0);
  EXPECT_EQ(seed.new_free_extensions, 1);

  // Rule 1 (problems :- problems): one full application in round 1 (deriving
  // nothing -- problems is still empty) plus one delta-pivot application in
  // each of rounds 2..8. The paper's trace: offsets 58, 106, 154, 202, 250,
  // 298 are inserted; 346 = 10 mod 168 is subsumed, stopping the run.
  const RuleProfile& step = profile.rules[1];
  EXPECT_EQ(step.clause_index, 1);
  EXPECT_EQ(step.head_predicate, "problems");
  EXPECT_EQ(step.applications, 8);
  EXPECT_EQ(step.derivations, 7);
  EXPECT_EQ(step.inserted, 6);
  EXPECT_EQ(step.subsumed, 1);
  EXPECT_EQ(step.new_free_extensions, 6);

  EXPECT_EQ(profile.TotalDerivations(), 8);
  EXPECT_EQ(profile.TotalInserted(), 7);
  // 7 kept tuples means 7 stored tuples (nothing is ever retracted).
  EXPECT_EQ(profile.TotalInserted(), result->TuplesStored());
}

TEST(EvalProfileTest, RuleTotalsAreConsistentWithRoundStats) {
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  int64_t round_inserted = 0;
  int64_t round_candidates = 0;
  int64_t round_new_fe = 0;
  for (const RoundStats& round : result->rounds) {
    round_inserted += round.inserted;
    round_candidates += round.candidates;
    round_new_fe += round.new_free_extensions;
  }
  int64_t rule_new_fe = 0;
  for (const RuleProfile& rule : result->profile.rules) {
    rule_new_fe += rule.new_free_extensions;
  }
  EXPECT_EQ(result->profile.TotalInserted(), round_inserted);
  EXPECT_EQ(result->profile.TotalDerivations(), round_candidates);
  EXPECT_EQ(rule_new_fe, round_new_fe);
}

TEST(EvalProfileTest, NegationProgramCountsMatchHandComputedFixpoint) {
  Database db;
  auto unit = Parse(kTickQuiet, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->reached_fixpoint);
  // Round 1 closes stratum 0 (no rules there: tick is extensional); round 2
  // is the quiet stratum's full application; round 3 confirms the fixpoint
  // (the rule has no positive intensional body atom, so semi-naive skips it
  // and nothing new can appear).
  ASSERT_EQ(result->iterations, 3);

  ASSERT_EQ(result->profile.rules.size(), 1u);
  const RuleProfile& rule = result->profile.rules[0];
  EXPECT_EQ(rule.head_predicate, "quiet");
  // One application; the join of tick(3n) against the complement of
  // tick(t+1) = {t != 2 mod 3} yields exactly one satisfiable piece (3n),
  // inserted with a new free extension. Nothing is ever subsumed.
  EXPECT_EQ(rule.applications, 1);
  EXPECT_EQ(rule.derivations, 1);
  EXPECT_EQ(rule.inserted, 1);
  EXPECT_EQ(rule.subsumed, 0);
  EXPECT_EQ(rule.new_free_extensions, 1);
  EXPECT_EQ(result->Relation("quiet").size(), 1u);
}

TEST(EvaluatorTest, RunIsIdempotentAndExposesTheProfile) {
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto first = Evaluate(unit->program, db);
  ASSERT_TRUE(first.ok()) << first.status();
  // A second evaluation recomputes the same model and the same profile.
  auto second = Evaluate(unit->program, db);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->Explain(false), first->Explain(false));
  EXPECT_EQ(first->profile.rules.size(), 2u);
  EXPECT_EQ(first->iterations, 8);
}

TEST(EvaluatorTest, ExplainRendersRulesAndRounds) {
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  std::string explain = result->Explain();
  EXPECT_NE(explain.find("8 rounds"), std::string::npos);
  EXPECT_NE(explain.find("fixpoint reached"), std::string::npos);
  EXPECT_NE(explain.find("problems :- course"), std::string::npos);
  EXPECT_NE(explain.find("problems :- problems"), std::string::npos);
  // One line per rule plus one per round plus headers.
  int lines = 0;
  for (char c : explain) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1 + 2 + 1 + 8);
}

// A rule line longer than any fixed buffer keeps every field, with and
// without timings.
TEST(EvaluatorTest, ExplainKeepsEveryFieldOfALongRule) {
  const std::string base = "base_relation_with_a_long_name";
  const std::string derived = "derived_relation_with_a_long_name";
  std::string source = ".decl " + base + "(time)\n.decl " + derived +
                       "(time)\n.fact " + base + "(3n).\n" + derived +
                       "(t) :- ";
  for (int i = 0; i < 5; ++i) {
    source += (i > 0 ? ", " : "") + base + "(t)";
  }
  source += ".\n";
  Database db;
  auto unit = Parse(source, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  std::string rule = derived + " :- " + base;
  for (int i = 1; i < 5; ++i) rule += ", " + base;
  for (bool timings : {false, true}) {
    const std::string explain = result->Explain(timings);
    const size_t start = explain.find("  rule 0   " + rule);
    ASSERT_NE(start, std::string::npos) << explain;
    const std::string line =
        explain.substr(start, explain.find('\n', start) - start);
    EXPECT_GT(line.size(), 256u);
    for (const char* field : {"apps=1 ", "derived=1 ", "kept=1 ",
                              "subsumed=0 ", "new_fe=1"}) {
      EXPECT_NE(line.find(field), std::string::npos) << field << ": " << line;
    }
    EXPECT_EQ(line.find("apply_us=") != std::string::npos, timings) << line;
  }
}

TEST(EvaluatorTest, ProfileTimingsAreFilled) {
#if defined(LRPDB_NO_METRICS)
  GTEST_SKIP() << "profile timings read as 0 under LRPDB_NO_METRICS";
#endif
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->profile.total_us, 0);
  EXPECT_GE(result->profile.normalize_us, 0);
  int64_t rule_apply_us = 0;
  for (const RuleProfile& rule : result->profile.rules) {
    rule_apply_us += rule.apply_us;
  }
  int64_t round_apply_us = 0;
  for (const RoundStats& round : result->rounds) {
    round_apply_us += round.apply_us;
    EXPECT_GE(round.duration_us, 0);
  }
  EXPECT_EQ(rule_apply_us, round_apply_us);
  EXPECT_LE(round_apply_us, result->profile.total_us);
}

}  // namespace
}  // namespace lrpdb
