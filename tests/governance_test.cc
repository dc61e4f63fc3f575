// End-to-end execution governance: deadlines, budgets, cancellation and
// graceful degradation across the generalized evaluator, the ground
// evaluator and the Datalog1S guess-and-certify loop.
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/datalog1s/datalog1s.h"
#include "src/gdb/algebra.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

// The E2 termination-sweep shape: EDB of period P, recursive step s. The
// orbit (and hence the round count to fixpoint) is P / gcd(P, s).
std::string SweepProgram(int64_t period, int64_t step) {
  return R"(
    .decl e(time, time)
    .decl p(time, time)
    .fact e()" +
         std::to_string(period) + "n+8, " + std::to_string(period) +
         R"(n+10) with T2 = T1 + 2.
    p(t1 + 2, t2 + 2) :- e(t1, t2).
    p(t1 + )" +
         std::to_string(step) + ", t2 + " + std::to_string(step) +
         R"() :- p(t1, t2).
  )";
}

struct Parsed {
  Database db;
  std::unique_ptr<ParsedUnit> unit;

  explicit Parsed(const std::string& source) {
    auto parsed = Parse(source, &db);
    LRPDB_CHECK(parsed.ok()) << parsed.status();
    unit = std::make_unique<ParsedUnit>(std::move(*parsed));
  }
};

int64_t CounterValue(const char* name) {
#if defined(LRPDB_NO_METRICS)
  (void)name;
  return 0;
#else
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
#endif
}

// Sanitizer instrumentation slows the evaluation loop ~10x; the 100ms
// overshoot bar below is the production-build acceptance criterion.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define LRPDB_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define LRPDB_TEST_SANITIZED 1
#endif
#if defined(LRPDB_TEST_SANITIZED)
constexpr double kDeadlineOvershootBudgetMs = 1000.0;
#else
constexpr double kDeadlineOvershootBudgetMs = 100.0;
#endif

// Acceptance bar: a 10ms deadline on a sweep whose fixpoint is ~a million
// rounds away must come back as kDeadlineExceeded with a non-empty partial
// model, well under 100ms of wall time.
TEST(GovernanceTest, DeadlineTripsFastWithNonEmptyPartial) {
  Parsed p(SweepProgram(1000003, 1));  // Orbit ~1e6: never finishes in 10ms.
  ExecContext exec;
  exec.set_deadline_after_us(10'000);
  exec.set_max_rounds(10'000'000);
  EvaluationOptions options;
  options.exec = &exec;
  options.max_iterations = 10'000'000;
  auto start = std::chrono::steady_clock::now();
  auto result = Evaluate(p.unit->program, p.db, options);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(ms, kDeadlineOvershootBudgetMs)
      << "deadline overshoot: poll coverage too sparse";
  const EvaluationResult& partial = *result;
  EXPECT_EQ(partial.partial.trip, StatusCode::kDeadlineExceeded)
      << partial.partial.reason;
  EXPECT_FALSE(partial.reached_fixpoint);
  // Rounds complete within microseconds here, so some must have finished.
  EXPECT_GT(partial.partial.last_completed_round, 0);
  EXPECT_GT(partial.Relation("p").size(), 0u);
  EXPECT_GT(partial.partial.polls, 0);
}

TEST(GovernanceTest, DeadlineTripIncrementsMetric) {
  int64_t before = CounterValue("exec.deadline_exceeded");
  Parsed p(SweepProgram(24, 7));
  ExecContext exec;
  exec.set_deadline_after_us(0);  // Expired before the first round.
  EvaluationOptions options;
  options.exec = &exec;
  auto result = Evaluate(p.unit->program, p.db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->partial.trip, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result->partial.last_completed_round, 0);
#if !defined(LRPDB_NO_METRICS)
  EXPECT_EQ(CounterValue("exec.deadline_exceeded"), before + 1);
#else
  (void)before;
#endif
}

// Satellite: every governed evaluation carries a default round cap even
// when the caller sets no explicit limit.
TEST(GovernanceTest, MaxRoundsCapsEvaluation) {
  Parsed p(SweepProgram(24, 7));  // Needs 25 rounds to converge.
  ExecContext exec;
  exec.set_max_rounds(3);
  EvaluationOptions options;
  options.exec = &exec;
  auto result = Evaluate(p.unit->program, p.db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->partial.trip, StatusCode::kResourceExhausted);
  EXPECT_NE(result->partial.reason.find("max_rounds"), std::string::npos);
  EXPECT_EQ(result->partial.last_completed_round, 3);
}

TEST(GovernanceTest, TupleBudgetDegradesGracefully) {
  Parsed p(SweepProgram(24, 7));
  ExecContext exec;
  exec.set_tuple_budget(5);
  exec.set_poll_stride(1);
  EvaluationOptions options;
  options.exec = &exec;
  auto result = Evaluate(p.unit->program, p.db, options);
  // In-band contract: Evaluate() reports the trip via the result, like the
  // max_iterations/fes_patience give-ups.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->reached_fixpoint);
  EXPECT_TRUE(result->partial.tripped());
  EXPECT_EQ(result->partial.trip, StatusCode::kResourceExhausted);
  EXPECT_NE(result->partial.reason.find("tuple budget"), std::string::npos);
  EXPECT_GT(result->partial.tuples_charged, 5);
  EXPECT_GT(result->partial.bytes_charged, 0);
}

// The byte budget is charged what the stores really grow by: on a run with
// a context but no budget, the bytes charged come within 25% of the final
// model's approx_bytes().
TEST(GovernanceTest, BytesChargedTrackTheStoredModel) {
  Parsed p(SweepProgram(168, 5));
  ExecContext exec;
  EvaluationOptions options;
  options.exec = &exec;
  auto result = Evaluate(p.unit->program, p.db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->reached_fixpoint);
  EXPECT_FALSE(result->partial.tripped());
  int64_t model_bytes = 0;
  for (const auto& [name, relation] : result->idb) {
    model_bytes += relation.approx_bytes();
  }
  ASSERT_GT(model_bytes, 0);
  // A run that trips reports the same counter as partial.bytes_charged.
  const double ratio = static_cast<double>(exec.bytes_charged()) / model_bytes;
  EXPECT_GE(ratio, 0.75) << exec.bytes_charged() << " charged, "
                         << model_bytes << " stored";
  EXPECT_LE(ratio, 1.25) << exec.bytes_charged() << " charged, "
                         << model_bytes << " stored";
}

// Cancellation at every poll site: cancel before the run, then after N
// polls for increasing N until a run completes. Every cancelled run must
// unwind as a clean kCancelled trip whose partial model is a subset of the
// full fixpoint.
TEST(GovernanceTest, CancellationAtEveryPollSiteYieldsSoundPartial) {
  Parsed p(SweepProgram(24, 7));
  EvaluationOptions base;
  auto full = Evaluate(p.unit->program, p.db, base);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->reached_fixpoint);

  bool completed = false;
  int cancelled_runs = 0;
  // n = -1 cancels before the run. Then a dense sweep over the first poll
  // sites, then exponential: the early sites cover round setup, the tail
  // covers deep in the fixpoint loop.
  for (int64_t n = -1; !completed; n = n < 32 ? n + 1 : n * 2) {
    ASSERT_LT(n, int64_t{1} << 40) << "evaluation never completed";
    ExecContext exec;
    exec.set_poll_stride(1);
    if (n < 0) {
      exec.Cancel();
    } else {
      exec.set_cancel_after_polls(n);
    }
    EvaluationOptions options;
    options.exec = &exec;
    auto result = Evaluate(p.unit->program, p.db, options);
    ASSERT_TRUE(result.ok()) << result.status() << " at cancel_after=" << n;
    if (!result->partial.tripped()) {
      EXPECT_TRUE(result->reached_fixpoint);
      completed = true;
      break;
    }
    ++cancelled_runs;
    EXPECT_EQ(result->partial.trip, StatusCode::kCancelled)
        << "cancel_after=" << n;
    EXPECT_FALSE(result->reached_fixpoint) << "cancel_after=" << n;
    for (const auto& [name, relation] : result->idb) {
      auto diff = Difference(relation, full->Relation(name));
      ASSERT_TRUE(diff.ok()) << diff.status();
      EXPECT_EQ(diff->size(), 0u)
          << "partial " << name << " \\ full non-empty at cancel_after=" << n;
    }
  }
  EXPECT_GT(cancelled_runs, 10);
}

TEST(GovernanceTest, GroundEvaluatorHonorsTupleBudget) {
  Parsed p(R"(
    .decl s(time)
    s(0).
    s(t + 1) :- s(t).
  )");
  GroundEvaluationOptions options;
  options.window_lo = 0;
  options.window_hi = 1000;
  ExecContext exec;
  exec.set_tuple_budget(10);
  exec.set_poll_stride(1);
  options.exec = &exec;
  auto result = EvaluateGround(p.unit->program, p.db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(exec.tripped());
  EXPECT_GT(exec.partial().tuples_charged, 10);
}

TEST(GovernanceTest, Datalog1SReportsHorizonLowerBound) {
  // Period 3000 certifies only once the window fits 4 periods (H >= 12000);
  // every window up to 2048 holds just s(0), so its ground evaluation needs
  // 2 rounds and fits under max_rounds = 3 while the horizon-doubling count
  // trips that same cap after 3 doublings (256 -> 512 -> 1024 -> 2048).
  Parsed p(R"(
    .decl s(time)
    s(0).
    s(t + 3000) :- s(t).
  )");
  ExecContext exec;
  exec.set_max_rounds(3);
  Datalog1SOptions options;
  options.exec = &exec;
  auto result = EvaluateDatalog1S(p.unit->program, p.db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("horizon doubling"),
            std::string::npos);
  // Certified lower bound: the largest window whose ground model was fully
  // materialized before the trip.
  EXPECT_EQ(exec.partial().horizon_lower_bound, 2048);
}

TEST(GovernanceTest, Datalog1SCancellationUnwindsCleanly) {
  Parsed p(R"(
    .decl s(time)
    s(0).
    s(t + 1) :- s(t).
  )");
  ExecContext exec;
  exec.set_poll_stride(1);
  exec.set_cancel_after_polls(10);
  Datalog1SOptions options;
  options.exec = &exec;
  auto result = EvaluateDatalog1S(p.unit->program, p.db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(exec.trip_code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, QueryAtomHonorsGovernance) {
  Parsed p(SweepProgram(24, 7));
  auto full = Evaluate(p.unit->program, p.db);
  ASSERT_TRUE(full.ok()) << full.status();
  PredicateAtom query;
  query.predicate = p.unit->program.predicates().Find("p");
  SymbolId t1 = p.unit->program.variables().Intern("qt1");
  SymbolId t2 = p.unit->program.variables().Intern("qt2");
  query.temporal_args = {TemporalTerm::Variable(t1),
                         TemporalTerm::Variable(t2)};
  ExecContext exec;
  exec.set_poll_stride(1);
  exec.Cancel();
  EvaluationOptions options;
  options.exec = &exec;
  auto answers = QueryAtom(p.unit->program, p.db, *full, query, options);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kCancelled);
}

// The ungoverned path stays ungoverned: no context, no caps beyond the
// evaluator's own max_iterations.
TEST(GovernanceTest, UngovernedEvaluationStillConverges) {
  Parsed p(SweepProgram(24, 7));
  auto result = Evaluate(p.unit->program, p.db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->reached_fixpoint);
  EXPECT_FALSE(result->partial.tripped());
  EXPECT_EQ(result->iterations, 25);  // Orbit 24 + confirming round.
}

}  // namespace
}  // namespace lrpdb
