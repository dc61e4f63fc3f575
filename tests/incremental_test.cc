// Differential gauntlet for incremental maintenance (DESIGN.md §13):
// randomized programs driven through random add/retract schedules must
// stay semantically identical to a from-scratch refixpoint of the updated
// database after every batch, and the incremental runs themselves must be
// bit-identical across {1, 2, 8} threads.
//
// The oracle for each step is deliberately built from the *surviving live
// EDB entries* (not from a replayed fact list): retraction's unit is the
// stored model — a fact absorbed at insert time has no entry of its own,
// so retracting it is a miss and does not resurrect what its absorber
// covered (src/core/incremental.h). Copying the live entries into a fresh
// database and refixpointing gives exactly the semantics the evaluator
// promises.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/incremental.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

constexpr int64_t kWindowLo = 0;
constexpr int64_t kWindowHi = 200;

// One incremental run: a parsed program + database + evaluator at one
// thread count.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<ParsedUnit> unit;
  std::unique_ptr<IncrementalEvaluator> inc;
};

Instance MakeRun(const std::string& text, int num_threads = 1) {
  Instance run;
  run.db = std::make_unique<Database>();
  auto unit = Parse(text, run.db.get());
  EXPECT_TRUE(unit.ok()) << unit.status() << "\n" << text;
  run.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  EvaluationOptions options;
  options.num_threads = num_threads;
  run.inc = std::make_unique<IncrementalEvaluator>(run.unit->program,
                                                   run.db.get(), options);
  EXPECT_TRUE(run.inc->Initialize().ok()) << text;
  return run;
}

// Refixpoints the surviving live EDB of `db` from scratch and returns the
// canonical ground-window fingerprint — the semantic oracle.
std::string OracleFingerprint(const Program& program, const Database& db) {
  Database scratch;
  // Copy the interner first so the program's interned rule constants keep
  // their ids in the scratch database.
  scratch.interner() = db.interner();
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.Relation(name);
    if (!rel.ok()) {
      ADD_FAILURE() << rel.status();
      return "";
    }
    auto declared = scratch.Declare(name, (*rel)->schema());
    if (!declared.ok()) {
      ADD_FAILURE() << declared;
      return "";
    }
    auto dst = scratch.MutableRelation(name);
    if (!dst.ok()) {
      ADD_FAILURE() << dst.status();
      return "";
    }
    const TupleStore& store = (*rel)->store();
    for (size_t i = 0; i < store.size(); ++i) {
      const EntryId id = static_cast<EntryId>(i);
      if (!store.is_live(id)) continue;
      auto restored = (*dst)->mutable_store().RestoreEntry(store.tuple(id));
      if (!restored.ok()) {
        ADD_FAILURE() << restored;
        return "";
      }
    }
  }
  IncrementalEvaluator oracle(program, &scratch);
  auto init = oracle.Initialize();
  EXPECT_TRUE(init.ok()) << init;
  return oracle.Fingerprint(kWindowLo, kWindowHi);
}

// Random negation-free programs over a periodic EDB, adapted from
// batch_kernel_test's generator: joins with shared data variables,
// recursion, constant-pinned atoms. `allow_negation` adds a stratified
// negated rule so the fallback (full recompute) path joins the gauntlet.
std::string Generate(std::mt19937& rng, bool allow_negation) {
  std::uniform_int_distribution<int> small(0, 6);
  std::uniform_int_distribution<int> step(1, 12);
  const int period = 24 + 12 * static_cast<int>(rng() % 3);
  const char* values[] = {"\"a\"", "\"b\"", "\"c\""};
  std::string s = R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .decl q(time, data)
  )";
  const int num_facts = 2 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_facts; ++i) {
    s += ".fact e(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", " + values[rng() % 3] + ").\n";
  }
  s += ".fact f(" + std::to_string(period) + "n+" +
       std::to_string(small(rng)) + ", " + values[rng() % 3] + ").\n";
  s += "p(t + " + std::to_string(small(rng)) + ", N) :- e(t, N).\n";
  s += "p(t, N) :- f(t, N).\n";
  s += "p(t + " + std::to_string(step(rng)) + ", N) :- p(t, N).\n";
  s += "q(t + " + std::to_string(small(rng)) + ", N) :- p(t, N), e(t + " +
       std::to_string(small(rng)) + ", N).\n";
  if (rng() % 2 == 0) {
    s += "q(t + " + std::to_string(small(rng)) + ", M) :- p(t, " +
         values[rng() % 3] + "), e(t + " + std::to_string(small(rng)) +
         ", M).\n";
  }
  if (rng() % 2 == 0) {
    s += "q(t + " + std::to_string(step(rng)) + ", N) :- e(t, N), p(t + " +
         std::to_string(small(rng)) + ", N), q(t, N).\n";
  }
  if (allow_negation && rng() % 2 == 0) {
    s = ".decl r(time, data)\n" + s;
    s += "r(t, N) :- p(t, N), !q(t, N).\n";
  }
  return s;
}

// One random update step: an add batch of fresh facts or a retract batch
// aimed at previously added (sometimes never-present) facts.
struct Step {
  bool add = false;
  // (relation, period, offset, value) per fact; tuples are built against
  // each run's own database so interner ids stay run-local.
  struct Spec {
    std::string relation;
    int64_t period;
    int64_t offset;
    std::string value;
  };
  std::vector<Spec> specs;
};

std::vector<Step> GenerateSchedule(std::mt19937& rng, int num_steps) {
  const char* values[] = {"a", "b", "c"};
  const char* relations[] = {"e", "f"};
  std::vector<Step::Spec> pool;  // Everything ever added; retract targets.
  std::vector<Step> schedule;
  for (int i = 0; i < num_steps; ++i) {
    Step step;
    step.add = pool.empty() || rng() % 3 != 0;
    const int batch = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < batch; ++k) {
      if (step.add) {
        Step::Spec spec{relations[rng() % 2],
                        24 + 12 * static_cast<int64_t>(rng() % 3),
                        static_cast<int64_t>(rng() % 20), values[rng() % 3]};
        pool.push_back(spec);
        step.specs.push_back(spec);
      } else if (rng() % 5 == 0) {
        // A miss: retract something that was never added.
        step.specs.push_back(
            Step::Spec{relations[rng() % 2], 60, 59, values[rng() % 3]});
      } else {
        step.specs.push_back(pool[rng() % pool.size()]);
      }
    }
    schedule.push_back(std::move(step));
  }
  return schedule;
}

std::vector<FactUpdate> BuildBatch(const Step& step, Database* db) {
  std::vector<FactUpdate> batch;
  for (const Step::Spec& spec : step.specs) {
    batch.push_back(FactUpdate{
        spec.relation,
        GeneralizedTuple::Unconstrained({Lrp(spec.period, spec.offset)},
                                        {db->Constant(spec.value)})});
  }
  return batch;
}

// Drives one program through one schedule at every thread count, checking
// after every step that (a) each run's ground fingerprint equals the
// from-scratch oracle and (b) all runs' stored dumps are bit-identical.
void RunGauntlet(const std::string& text, const std::vector<Step>& schedule) {
  SCOPED_TRACE(text);
  std::vector<Instance> runs;
  for (int threads : {1, 2, 8}) runs.push_back(MakeRun(text, threads));
  for (size_t si = 0; si < schedule.size(); ++si) {
    const Step& step = schedule[si];
    SCOPED_TRACE("step " + std::to_string(si) +
                 (step.add ? " (add)" : " (retract)"));
    for (Instance& run : runs) {
      std::vector<FactUpdate> batch = BuildBatch(step, run.db.get());
      Status status = step.add ? run.inc->AddFacts(batch)
                               : run.inc->RetractFacts(batch);
      ASSERT_TRUE(status.ok()) << status;
      ASSERT_TRUE(run.inc->at_fixpoint());
    }
    const std::string oracle =
        OracleFingerprint(runs[0].unit->program, *runs[0].db);
    const std::string reference_dump = runs[0].inc->DumpStored();
    for (size_t r = 0; r < runs.size(); ++r) {
      EXPECT_EQ(runs[r].inc->Fingerprint(kWindowLo, kWindowHi), oracle)
          << "run " << r;
      EXPECT_EQ(runs[r].inc->DumpStored(), reference_dump) << "run " << r;
    }
  }
}

class IncrementalRandomTest : public ::testing::TestWithParam<int> {};

// 18 seeds x 6 programs = 108 random programs, each with a 6-step random
// add/retract schedule, each step checked at 3 thread counts against the
// from-scratch oracle. (The test name predates the removal of the
// tuple-at-a-time kernel.) Two of the six programs allow negation, so the
// fallback path is exercised throughout.
TEST_P(IncrementalRandomTest, MatchesRefixpointAcrossKernelsAndThreads) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 6; ++iter) {
    const bool allow_negation = iter >= 4;
    const std::string text = Generate(rng, allow_negation);
    RunGauntlet(text, GenerateSchedule(rng, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomTest,
                         ::testing::Range(1, 19));

// --- Directed cases -------------------------------------------------------

constexpr char kChain[] = R"(
  .decl e(time, data)
  .decl p(time, data)
  .decl q(time, data)
  .fact e(24n+1, "a").
  p(t + 1, N) :- e(t, N).
  q(t + 1, N) :- p(t, N).
)";

TEST(IncrementalTest, AddFactsGrowsDerivations) {
  Instance run = MakeRun(kChain);
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 5)}, {run.db->Constant("b")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

TEST(IncrementalTest, DuplicateAddIsAbsorbedWithoutWork) {
  Instance run = MakeRun(kChain);
  const std::string before = run.inc->DumpStored();
  // Bit-for-bit the same fact the program seeded: absorbed, no delta.
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  EXPECT_EQ(run.inc->DumpStored(), before);
}

TEST(IncrementalTest, RetractBaseFactRemovesItsDerivations) {
  Instance run = MakeRun(kChain);
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  // Everything derived hung off the one base fact: the model empties.
  const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
  EXPECT_EQ(fp, OracleFingerprint(run.unit->program, *run.db));
  EXPECT_EQ(fp.find("("), std::string::npos) << fp;
}

TEST(IncrementalTest, AlternativeDerivationSurvivesRetraction) {
  Instance run = MakeRun(R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .fact e(24n+1, "a").
    .fact f(24n+1, "a").
    p(t, N) :- e(t, N).
    p(t, N) :- f(t, N).
  )");
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  // p's tuple was over-deleted with e's support but re-derives through f.
  const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
  EXPECT_EQ(fp, OracleFingerprint(run.unit->program, *run.db));
  EXPECT_NE(fp.find("idb p:\n  ("), std::string::npos) << fp;
}

TEST(IncrementalTest, RetractMissIsANoop) {
  Instance run = MakeRun(kChain);
  const std::string before = run.inc->DumpStored();
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(60, 59)}, {run.db->Constant("zz")})}})
                  .ok());
  EXPECT_EQ(run.inc->DumpStored(), before);
}

TEST(IncrementalTest, CompactRetractedPreservesTheModel) {
  Instance run = MakeRun(kChain);
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 5)}, {run.db->Constant("b")})}})
                  .ok());
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
  const std::string dump = run.inc->DumpStored();
  EXPECT_GT(run.inc->CompactRetracted(), 0u);
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi), fp);
  EXPECT_EQ(run.inc->DumpStored(), dump);
  // Updates keep working on the compacted store (stable EntryIds).
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 9)}, {run.db->Constant("c")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

TEST(IncrementalTest, UpdateBeforeInitializeFails) {
  Database db;
  auto unit = Parse(kChain, &db);
  ASSERT_TRUE(unit.ok());
  IncrementalEvaluator inc(unit->program, &db);
  EXPECT_FALSE(inc.AddFacts({}).ok());
  EXPECT_FALSE(inc.RetractFacts({}).ok());
  ASSERT_TRUE(inc.Initialize().ok());
  EXPECT_FALSE(inc.Initialize().ok()) << "second Initialize must fail";
}

TEST(IncrementalTest, UpdateValidationRejectsBadBatches) {
  Instance run = MakeRun(kChain);
  // Undeclared relation.
  EXPECT_FALSE(run.inc
                   ->AddFacts({FactUpdate{
                       "nope", GeneralizedTuple::Unconstrained(
                                   {Lrp(24, 1)}, {run.db->Constant("a")})}})
                   .ok());
  // Arity mismatch (two temporal columns against e's one).
  EXPECT_FALSE(run.inc
                   ->AddFacts({FactUpdate{
                       "e", GeneralizedTuple::Unconstrained(
                                {Lrp(24, 1), Lrp(24, 2)},
                                {run.db->Constant("a")})}})
                   .ok());
}

// A long add/retract stream on a recursive program with a join against
// facts that are never retracted: the retained provenance must stay flat,
// and the model must still equal a from-scratch evaluation at the end.
// Every retraction re-applies the p and q rules in full, re-deriving the
// "d" chain that hangs off the pinned e fact (one origin per distinct
// derivation keeps it from growing); the churned a/b/c chains die and
// leave stale reverse edges on the pinned g facts (pruned at compaction).
TEST(IncrementalTest, ProvenanceStaysBoundedOverLongUpdateStream) {
  if (!kProvenanceCompiledIn) GTEST_SKIP() << "built with LRPDB_NO_PROVENANCE";
  Instance run = MakeRun(R"(
    .decl g(time, data)
    .decl e(time, data)
    .decl p(time, data)
    .decl q(time, data)
    .fact g(24n+3, "a").
    .fact g(24n+5, "b").
    .fact g(24n+7, "c").
    .fact g(24n+4, "d").
    .fact e(24n+23, "d").
    p(t + 1, N) :- e(t, N).
    p(t + 10, N) :- p(t, N).
    q(t, N) :- p(t, N), g(t, N).
  )");
  constexpr int kCycles = 300;
  constexpr int kCompactEvery = 16;
  constexpr int kFactsPerCycle = 3;
  constexpr int kLiveCycles = 4;  // A fact is retracted 4 cycles later.
  const char* values[] = {"a", "b", "c"};
  auto fact = [&](int cycle, int k) {
    const int n = cycle * kFactsPerCycle + k;
    return FactUpdate{"e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, n % 23)},
                               {run.db->Constant(values[n % 3])})};
  };
  int64_t bytes_at_32 = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<FactUpdate> add;
    for (int k = 0; k < kFactsPerCycle; ++k) add.push_back(fact(cycle, k));
    ASSERT_TRUE(run.inc->AddFacts(add).ok()) << "cycle " << cycle;
    if (cycle >= kLiveCycles) {
      for (int k = 0; k < kFactsPerCycle; ++k) {
        ASSERT_TRUE(
            run.inc->RetractFacts({fact(cycle - kLiveCycles, k)}).ok())
            << "cycle " << cycle;
      }
    }
    ASSERT_TRUE(run.inc->at_fixpoint());
    if (cycle % kCompactEvery == kCompactEvery - 1) run.inc->CompactRetracted();
    if (cycle + 1 == 32) bytes_at_32 = run.inc->provenance()->approx_bytes();
  }
  const int64_t bytes_at_end = run.inc->provenance()->approx_bytes();
  ASSERT_GT(bytes_at_32, 0);
  EXPECT_LE(static_cast<double>(bytes_at_end), 1.2 * bytes_at_32)
      << "provenance bytes: " << bytes_at_32 << " after 32 cycles, "
      << bytes_at_end << " after " << kCycles;
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

TEST(IncrementalTest, NegationFallsBackToFullRecompute) {
  Instance run = MakeRun(R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl r(time, data)
    .fact e(24n+1, "a").
    .fact e(24n+3, "b").
    p(t + 1, N) :- e(t, N).
    r(t, N) :- e(t, N), !p(t, N).
  )");
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 2)}, {run.db->Constant("a")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 1)}, {run.db->Constant("a")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

}  // namespace
}  // namespace lrpdb
