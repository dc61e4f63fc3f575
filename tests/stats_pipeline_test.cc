// One stats pipeline: storage work is counted into caller-owned StoreStats,
// folded into RoundStats::store, and published to the metrics registry once
// per finished round. So over one Evaluate, every store.* registry delta
// equals the matching StoreTotals() field, every eval.* round counter
// equals the sum over result.rounds, and the model holds exactly the tuples
// the rounds inserted: nothing runs after the fixpoint.
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/obs/metrics.h"
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

// Each pair meets twice a week, 24 hours apart, so its two 48-hour consult
// chains together fill one residue class mod 24. The model keeps that
// class as the rounds derived it: 7 period-168 tuples per pair.
constexpr char kConsult[] = R"(
  .decl advises(time, data, data)
  .decl consult(time, data, data)
  .decl lecture(time, data, data)
  lecture(t, P, S) :- advises(t, P, S).
  consult(t + 2, P, S) :- advises(t, P, S).
  consult(t + 48, P, S) :- consult(t, P, S).
  .fact advises(168n+1, "p0", "s0") with T1 >= 0.
  .fact advises(168n+25, "p0", "s0") with T1 >= 0.
  .fact advises(168n+2, "p1", "s1") with T1 >= 0.
  .fact advises(168n+26, "p1", "s1") with T1 >= 0.
)";

const char* const kStoreCounters[] = {
    "store.signature_probes", "store.subsumption_checks",
    "store.subsumption_candidates", "store.inserts", "store.subsumed",
    "store.empty_dropped", "store.index_probes", "store.tuples_scanned",
    "store.tuples_pruned",
};
const char* const kRoundCounters[] = {"eval.rounds", "eval.candidates",
                                      "eval.inserted"};

std::map<std::string, int64_t> ReadCounters() {
  std::map<std::string, int64_t> values;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const char* name : kStoreCounters) {
    values[name] = registry.GetCounter(name)->value();
  }
  for (const char* name : kRoundCounters) {
    values[name] = registry.GetCounter(name)->value();
  }
  return values;
}

// Evaluates `source` once and checks every registry delta against the
// result's own per-round counts.
EvaluationResult ExpectRegistryMatchesRounds(const char* source) {
  Database db;
  auto unit = Parse(source, &db);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return EvaluationResult();
  const std::map<std::string, int64_t> before = ReadCounters();
  auto result = Evaluate(unit->program, db);
  const std::map<std::string, int64_t> after = ReadCounters();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return EvaluationResult();
  EXPECT_TRUE(result->reached_fixpoint);
  auto delta = [&](const std::string& name) {
    return after.at(name) - before.at(name);
  };

  const StoreStats totals = result->StoreTotals();
  const std::map<std::string, int64_t> expected_store = {
      {"store.signature_probes", totals.signature_probes},
      {"store.subsumption_checks", totals.subsumption_checks},
      {"store.subsumption_candidates", totals.subsumption_candidates},
      {"store.inserts", totals.inserts},
      {"store.subsumed", totals.subsumed},
      {"store.empty_dropped", totals.empty_dropped},
      {"store.index_probes", totals.index_probes},
      {"store.tuples_scanned", totals.tuples_scanned},
      {"store.tuples_pruned", totals.tuples_pruned},
  };
  for (const auto& [name, value] : expected_store) {
    EXPECT_EQ(delta(name), value) << name;
  }
  // The round counters are not vacuous: the run did insert and probe.
  EXPECT_GT(totals.inserts, 0);
  EXPECT_GT(totals.index_probes, 0);

  int64_t candidates = 0;
  int64_t inserted = 0;
  for (const RoundStats& round : result->rounds) {
    candidates += round.candidates;
    inserted += round.inserted;
  }
  EXPECT_EQ(delta("eval.rounds"),
            static_cast<int64_t>(result->rounds.size()));
  EXPECT_EQ(delta("eval.candidates"), candidates);
  EXPECT_EQ(delta("eval.inserted"), inserted);
  EXPECT_EQ(totals.inserts, inserted);
  EXPECT_EQ(result->TuplesStored(), inserted);
  return std::move(*result);
}

class StatsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(LRPDB_NO_METRICS)
    GTEST_SKIP() << "the registry stays empty under LRPDB_NO_METRICS";
#endif
  }
};

TEST_F(StatsPipelineTest, Example41RegistryMatchesRoundStats) {
  EvaluationResult result = ExpectRegistryMatchesRounds(kExample41);
  EXPECT_EQ(result.iterations, 8);
}

TEST_F(StatsPipelineTest, ConsultModelIsWhatTheRoundsInserted) {
  EvaluationResult result = ExpectRegistryMatchesRounds(kConsult);
  // Each pair keeps its 7 period-168 tuples, although together they are
  // one 24n residue class.
  EXPECT_EQ(result.Relation("consult").size(), 2u * 7);
}

}  // namespace
}  // namespace lrpdb
