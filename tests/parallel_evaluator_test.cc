// Parallel semi-naive evaluation (DESIGN.md §8): the ThreadPool primitive
// and the evaluator's sharded apply phase. The load-bearing property is
// *bit-identical determinism*: for any thread count, the evaluator must
// produce the same tuple sets, the same insertion order, and the same
// EXPLAIN counts as the single-threaded engine. CI re-runs this suite under
// TSan with LRPDB_THREADS=8 (ci/check.sh --tsan), which is what actually
// exercises the cross-thread visibility arguments.
#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/common/thread_pool.h"
#include "src/core/evaluator.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, DefaultThreadsParsesEnvironmentAndOverride) {
  ASSERT_EQ(unsetenv("LRPDB_THREADS"), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 1);
  ASSERT_EQ(setenv("LRPDB_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  ASSERT_EQ(setenv("LRPDB_THREADS", "max", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  EXPECT_LE(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
  ASSERT_EQ(setenv("LRPDB_THREADS", "bogus", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 1);
  ASSERT_EQ(setenv("LRPDB_THREADS", "-4", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 1);
  ASSERT_EQ(unsetenv("LRPDB_THREADS"), 0);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  Status status = ThreadPool::Global().ParallelFor(
      kN, /*grain=*/7, /*parallelism=*/8, /*exec=*/nullptr,
      [&](int64_t begin, int64_t end) -> Status {
        EXPECT_LT(begin, end);
        EXPECT_LE(end - begin, 7);
        for (int64_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
        return OkStatus();
      });
  ASSERT_TRUE(status.ok()) << status;
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForInlineSingleThreadAndEmptyRange) {
  int64_t sum = 0;  // No synchronization: parallelism 1 runs inline.
  Status status = ThreadPool::Global().ParallelFor(
      10, /*grain=*/3, /*parallelism=*/1, nullptr,
      [&](int64_t begin, int64_t end) -> Status {
        sum += end - begin;
        return OkStatus();
      });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(sum, 10);
  Status empty = ThreadPool::Global().ParallelFor(
      0, 1, 8, nullptr,
      [&](int64_t, int64_t) -> Status { return InternalError("never runs"); });
  EXPECT_TRUE(empty.ok());
}

TEST(ThreadPoolTest, ParallelForReportsLowestIndexedFailure) {
  // Every chunk fails, naming its start index. Chunk 0 always runs (it is
  // the first claim), so whatever interleaving occurs, the reported error
  // must be chunk 0's — the one the sequential loop would have hit first.
  Status status = ThreadPool::Global().ParallelFor(
      64, /*grain=*/1, /*parallelism=*/8, nullptr,
      [&](int64_t begin, int64_t) -> Status {
        return InternalError("chunk " + std::to_string(begin));
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("chunk 0"), std::string::npos) << status;
}

TEST(ThreadPoolTest, ParallelForStopsOnGovernanceTrip) {
  ExecContext exec;
  exec.set_poll_stride(1);
  std::atomic<int64_t> ran{0};
  exec.Cancel();
  Status status = ThreadPool::Global().ParallelFor(
      1 << 20, /*grain=*/1, /*parallelism=*/4, &exec,
      [&](int64_t, int64_t) -> Status {
        ran.fetch_add(1, std::memory_order_relaxed);
        return OkStatus();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(exec.tripped());
  // The poll before each claim sees the cancellation: nothing (or at most
  // a stride's worth of chunks racing the flag) runs out of a million.
  EXPECT_LT(ran.load(), 1024);
}

TEST(ThreadPoolTest, WorkersInstallTheCallersExecContext) {
  ExecContext exec;
  std::atomic<int> mismatches{0};
  Status status = ThreadPool::Global().ParallelFor(
      256, /*grain=*/1, /*parallelism=*/8, &exec,
      [&](int64_t, int64_t) -> Status {
        if (ExecContext::Current() != &exec) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        return OkStatus();
      });
  ASSERT_TRUE(status.ok()) << status;
  // Every chunk — on the caller and on any worker — must see the caller's
  // context as the ambient one (DBM closure charges, trip-budget
  // failpoints).
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPoolTest, StatsAdvance) {
  ThreadPool::Stats before = ThreadPool::Global().stats();
  Status status = ThreadPool::Global().ParallelFor(
      100, /*grain=*/10, /*parallelism=*/4, nullptr,
      [&](int64_t, int64_t) -> Status { return OkStatus(); });
  ASSERT_TRUE(status.ok()) << status;
  ThreadPool::Stats after = ThreadPool::Global().stats();
  EXPECT_GE(after.jobs, before.jobs + 1);
  EXPECT_GE(after.chunks, before.chunks + 10);
  EXPECT_GE(after.workers, 1);
}

// --- Parallel evaluation determinism --------------------------------------

// Example 4.1: course Monday 8-10 every week (period 168), problem sessions
// two hours later and every 48h thereafter.
constexpr char kExample41[] = R"(
  .decl course(time, time, data)
  .decl problems(time, time, data)
  .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
  problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
  problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
)";

// Stratified negation: quiet at tick times whose successor is not a tick.
constexpr char kTickQuiet[] = R"(
  .decl tick(time)
  .decl quiet(time)
  .fact tick(3n).
  quiet(t) :- tick(t), !tick(t + 1).
)";

// A wide multi-rule recursive workload (bench_e2 style): several seed
// orbits per relation and two mutually feeding step rules, so rounds carry
// delta generations large enough for the sharder to actually split.
constexpr char kWide[] = R"(
  .decl seed(time, data)
  .decl p(time, data)
  .decl q(time, data)
  .fact seed(96n+1, "a").
  .fact seed(96n+2, "b").
  .fact seed(96n+3, "c").
  .fact seed(96n+5, "d").
  .fact seed(96n+7, "e").
  .fact seed(96n+11, "f").
  .fact seed(96n+13, "g").
  .fact seed(96n+17, "h").
  p(t, N) :- seed(t, N).
  q(t + 5, N) :- p(t, N).
  p(t + 7, N) :- q(t, N).
  q(t + 11, N) :- q(t, N).
)";

// A long-orbit bench_e2 instance (period 512, step 1): the worst-case
// orbit shape the termination sweep times, here exercised for hundreds of
// rounds so the delta ranges the sharder slices drift through every
// generation-boundary shape. (bench_e2 itself sweeps to P=128 and times
// it — this differential only needs the round count, so P=512 keeps it
// fast enough for the sanitizer legs.)
constexpr char kLongOrbit[] = R"(
  .decl e(time, time)
  .decl p(time, time)
  .fact e(512n+8, 512n+10) with T2 = T1 + 2.
  p(t1 + 2, t2 + 2) :- e(t1, t2).
  p(t1 + 1, t2 + 1) :- p(t1, t2).
)";

// Evaluates `text` with the given thread count and returns (timing-free
// EXPLAIN dump, concatenated relation dumps) — together a bit-exact
// fingerprint of the computed model and its insertion order.
struct Fingerprint {
  std::string explain;
  std::string relations;
  int threads = 0;
  EvalProfile profile;
};

Fingerprint MakeFingerprint(const char* text, int num_threads) {
  Database db;
  auto unit = Parse(text, &db);
  EXPECT_TRUE(unit.ok()) << unit.status();
  EvaluationOptions options;
  options.num_threads = num_threads;
  auto result = Evaluate(unit->program, db, options);
  EXPECT_TRUE(result.ok()) << result.status();
  Fingerprint fp;
  fp.explain = result->Explain(/*include_timings=*/false);
  for (const auto& [name, relation] : result->idb) {
    fp.relations += name + ":\n" + relation.ToString(&db.interner());
  }
  fp.threads = result->threads;
  fp.profile = result->profile;
  return fp;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelDeterminismTest, IdenticalModelAndExplainAcrossThreadCounts) {
  Fingerprint base = MakeFingerprint(GetParam(), 1);
  ASSERT_EQ(base.threads, 1);
  for (int threads : {2, 8}) {
    Fingerprint fp = MakeFingerprint(GetParam(), threads);
    EXPECT_EQ(fp.threads, threads);
    EXPECT_EQ(fp.explain, base.explain) << "threads=" << threads;
    EXPECT_EQ(fp.relations, base.relations) << "threads=" << threads;
    ASSERT_EQ(fp.profile.rules.size(), base.profile.rules.size());
    for (size_t i = 0; i < fp.profile.rules.size(); ++i) {
      EXPECT_EQ(fp.profile.rules[i].applications,
                base.profile.rules[i].applications);
      EXPECT_EQ(fp.profile.rules[i].derivations,
                base.profile.rules[i].derivations);
      EXPECT_EQ(fp.profile.rules[i].inserted, base.profile.rules[i].inserted);
      EXPECT_EQ(fp.profile.rules[i].subsumed, base.profile.rules[i].subsumed);
      EXPECT_EQ(fp.profile.rules[i].new_free_extensions,
                base.profile.rules[i].new_free_extensions);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, ParallelDeterminismTest,
                         ::testing::Values(kExample41, kTickQuiet, kWide,
                                           kLongOrbit));

TEST(ParallelEvaluatorTest, EnvironmentDefaultIsRespected) {
  ASSERT_EQ(setenv("LRPDB_THREADS", "2", 1), 0);
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_EQ(unsetenv("LRPDB_THREADS"), 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->threads, 2);
  EXPECT_TRUE(result->reached_fixpoint);
}

TEST(ParallelEvaluatorTest, ExplicitOptionBeatsEnvironment) {
  ASSERT_EQ(setenv("LRPDB_THREADS", "8", 1), 0);
  Database db;
  auto unit = Parse(kExample41, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EvaluationOptions options;
  options.num_threads = 3;
  auto result = Evaluate(unit->program, db, options);
  ASSERT_EQ(unsetenv("LRPDB_THREADS"), 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->threads, 3);
}

TEST(ParallelEvaluatorTest, GovernanceTripsCleanlyFromWorkerThreads) {
  Database db;
  auto unit = Parse(kWide, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ExecContext exec;
  exec.set_poll_stride(1);
  exec.set_tuple_budget(4);  // Trips mid-evaluation, from whatever thread.
  EvaluationOptions options;
  options.num_threads = 8;
  options.exec = &exec;
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->partial.trip, StatusCode::kResourceExhausted);
  // The partial model is sound: rounds completed before the trip only.
  EXPECT_FALSE(result->reached_fixpoint);
}

TEST(ParallelEvaluatorTest, CancellationFromAnotherThreadUnwinds) {
  Database db;
  auto unit = Parse(kWide, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ExecContext exec;
  exec.set_poll_stride(1);
  exec.Cancel();  // Pre-cancelled: the first poll anywhere must trip.
  EvaluationOptions options;
  options.num_threads = 4;
  options.exec = &exec;
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->partial.trip, StatusCode::kCancelled);
}

}  // namespace
}  // namespace lrpdb
