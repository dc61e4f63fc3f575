// Correctness suite for the compiled-plan batch kernel (DESIGN.md §9), the
// generalized engine's one apply path. Two properties per program:
//
//  * Determinism: runs at 1, 2 and 8 worker threads produce the
//    bit-identical model — the same relations with the same insertion order
//    (relation dumps compare stored order, not just set equality) and the
//    same timing-free Explain() — as a 1-thread reference run.
//  * Ground exactness: the model denotes, on two full periods, exactly the
//    facts of the windowed ground evaluator (tests/ground_oracle.h), the
//    paper's ground semantics.
//
// The ground kernel shares the compiled data descriptors with the batch
// kernel (CompileAtom), so the SharedDescriptorTest cases below also pin
// those descriptors against answers written out by hand.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/clause_plan.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/core/normalizer.h"
#include "src/parser/parser.h"
#include "tests/ground_oracle.h"

namespace lrpdb {
namespace {

// A model fingerprint: timing-free EXPLAIN (rule/round counts) plus every
// relation's dump in stored order.
struct Fingerprint {
  std::string explain;
  std::string relations;
};

// Where a program's ground check looks: every EDB fact has period
// `period`, so the model is invariant under shifting every column by it
// and the interior [0, 2 * period) covers every residue — with room for
// column differences beyond one period, which only tuple constraints
// exclude; no derivation of a fact at t reaches below t - `margin` or
// above t + kLookahead.
struct GroundCheck {
  int64_t period = 0;
  int64_t margin = 0;
};
constexpr int64_t kLookahead = 24;

// Evaluates `text` with `num_threads` workers and fingerprints the model.
// With a `check`, also asserts the model against the ground oracle.
Fingerprint Evaluated(const std::string& text, int num_threads,
                      const GroundCheck* check = nullptr) {
  Database db;
  auto unit = Parse(text, &db);
  EXPECT_TRUE(unit.ok()) << unit.status() << "\n" << text;
  if (!unit.ok()) return {};
  EvaluationOptions options;
  options.num_threads = num_threads;
  auto result = Evaluate(unit->program, db, options);
  EXPECT_TRUE(result.ok()) << result.status() << "\n" << text;
  if (!result.ok()) return {};
  EXPECT_TRUE(result->reached_fixpoint) << text;
  Fingerprint fp;
  fp.explain = result->Explain(/*include_timings=*/false);
  for (const auto& [name, relation] : result->idb) {
    fp.relations += name + ":\n" + relation.ToString(&db.interner());
  }
  if (check != nullptr) {
    ExpectMatchesGroundOracle(unit->program, db, *result, 0,
                              2 * check->period, -check->margin,
                              2 * check->period + kLookahead);
  }
  return fp;
}

// Asserts ground exactness of the 1-thread model and bit-identical models
// at 1, 2 and 8 threads against it.
void ExpectDeterministicAndGroundExact(const std::string& text,
                                       GroundCheck check) {
  SCOPED_TRACE(text);
  const Fingerprint reference = Evaluated(text, /*num_threads=*/1, &check);
  for (int threads : {1, 2, 8}) {
    const Fingerprint fp = Evaluated(text, threads);
    EXPECT_EQ(fp.explain, reference.explain) << "threads=" << threads;
    EXPECT_EQ(fp.relations, reference.relations) << "threads=" << threads;
  }
}

// How far back a chain `p(t + step) :- p(t)` over a period-`period` EDB can
// reach: after period / gcd steps the residue repeats, so a shortest
// derivation takes fewer.
int64_t ChainReach(int64_t step, int64_t period) {
  return step * (period / std::gcd(step, period));
}

struct GeneratedProgram {
  std::string text;
  GroundCheck check;
};

// Random programs over a periodic EDB with data columns, designed to hit
// every compiled-plan shape: constant-pinned columns (posting resolution at
// compile time), data variables shared across atoms (per-binding bound
// probes and join reordering), repeated variables within one atom (intra
// equalities), multi-atom joins, recursion (delta pivots and shard splits),
// and stratified negation.
GeneratedProgram Generate(std::mt19937& rng) {
  std::uniform_int_distribution<int> small(0, 6);
  std::uniform_int_distribution<int> step(1, 12);
  const int period = 24 + 12 * static_cast<int>(rng() % 3);
  const char* values[] = {"\"a\"", "\"b\"", "\"c\""};
  std::string s = R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl q(time, data)
  )";
  const int num_facts = 2 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_facts; ++i) {
    s += ".fact e(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", " + values[rng() % 3] + ").\n";
  }
  // Offsets are at most 6 per rule; each recursive chain adds its reach.
  const int p_step = step(rng);
  int64_t margin = 24 + ChainReach(p_step, period);
  s += "p(t + " + std::to_string(small(rng)) + ", N) :- e(t, N).\n";
  s += "p(t + " + std::to_string(p_step) + ", N) :- p(t, N).\n";
  // Join with a shared data variable: the second atom probes N's posting.
  s += "q(t + " + std::to_string(small(rng)) + ", N) :- p(t, N), e(t + " +
       std::to_string(small(rng)) + ", N).\n";
  if (rng() % 2 == 0) {
    // Constant-pinned atom plus an unconstrained one: the plan compiler
    // reorders the constant atom forward (selectivity), and the kernel's
    // body-order id sort must restore body-order emission.
    s += "q(t + " + std::to_string(small(rng)) + ", M) :- p(t, " +
         values[rng() % 3] + "), e(t + " + std::to_string(small(rng)) +
         ", M).\n";
  }
  if (rng() % 2 == 0) {
    // Three-way join, two recursive atoms.
    const int q_step = step(rng);
    margin += ChainReach(q_step, period);
    s += "q(t + " + std::to_string(q_step) + ", N) :- e(t, N), p(t + " +
         std::to_string(small(rng)) + ", N), q(t, N).\n";
  }
  if (rng() % 2 == 0) {
    // Repeated data variable within one atom (intra-column equality).
    s = ".decl d2(time, data, data)\n" + s;
    s += ".fact d2(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", \"a\", \"a\").\n";
    s += ".fact d2(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", \"a\", \"b\").\n";
    s += "q(t, N) :- d2(t, N, N).\n";
  }
  if (rng() % 3 == 0) {
    // Stratified negation: the negated atom reads q's complement.
    s = ".decl r(time, data)\n" + s;
    s += "r(t, N) :- p(t, N), !q(t, N).\n";
  }
  return {s, {period, margin}};
}

class BatchKernelRandomTest : public ::testing::TestWithParam<int> {};

// 25 seeds x 8 programs = 200 random programs, each checked against the
// ground oracle and run at 1, 2, and 8 threads. (The test name predates
// the removal of the tuple-at-a-time kernel it once compared against.)
TEST_P(BatchKernelRandomTest, BitIdenticalToLegacyAcrossThreadCounts) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 9176 + 11);
  for (int iter = 0; iter < 8; ++iter) {
    const GeneratedProgram program = Generate(rng);
    ExpectDeterministicAndGroundExact(program.text, program.check);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernelRandomTest,
                         ::testing::Range(1, 26));

// --- Fixed corner cases ---------------------------------------------------

TEST(BatchKernelTest, Example41IntervalsWithConstraints) {
  ExpectDeterministicAndGroundExact(R"(
    .decl course(time, time, data)
    .decl problems(time, time, data)
    .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
    problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
    problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
  )",
                                    {168, 2 + ChainReach(48, 168)});
}

TEST(BatchKernelTest, NegationOverComplement) {
  ExpectDeterministicAndGroundExact(R"(
    .decl tick(time)
    .decl quiet(time)
    .fact tick(3n).
    quiet(t) :- tick(t), !tick(t + 1).
  )",
                                    {3, 0});
}

TEST(BatchKernelTest, ConstantOnlyAtomAndProjection) {
  // One atom fully pinned by a constant (compile-time posting, possibly
  // absent value) plus a head that projects a body variable away.
  ExpectDeterministicAndGroundExact(R"(
    .decl iv(time, time)
    .decl w(time)
    .decl z(time)
    .fact iv(24n+1, 24n+3) with T2 = T1 + 2.
    w(t1) :- iv(t1, t2).
    z(t + 24) :- z(t), w(t).
    z(t) :- w(t).
  )",
                                    {24, ChainReach(24, 24)});
}

TEST(BatchKernelTest, MissingConstantValueEmptiesJoin) {
  // "nope" never appears in e's data column: the compiled plan's constant
  // posting probe must yield an empty frontier.
  ExpectDeterministicAndGroundExact(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(6n, "a").
    p(t, N) :- e(t, N), e(t, "nope").
    p(t + 1, N) :- p(t, N).
  )",
                                    {6, ChainReach(1, 6)});
}

TEST(BatchKernelTest, WideMultiRuleRecursion) {
  // p and q feed each other (+5, +7) and q recurses (+11): every residue
  // mod 96 is reached within 96 hops of at most 11.
  ExpectDeterministicAndGroundExact(R"(
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
  )",
                                    {96, 96 * 12});
}

// --- Shared descriptors, pinned by hand -----------------------------------

constexpr int64_t kFactsLo = 0;
constexpr int64_t kFactsHi = 20;

// "(t1,t2,data...)" with data constants by name.
std::string Render(const GroundTuple& fact, const Interner& interner) {
  std::string s = "(";
  for (size_t i = 0; i < fact.times.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(fact.times[i]);
  }
  for (DataValue d : fact.data) s += "," + interner.NameOf(d);
  return s + ")";
}

std::vector<std::string> Rendered(const std::vector<GroundTuple>& facts,
                                  const Interner& interner) {
  std::vector<std::string> out;
  for (const GroundTuple& fact : facts) out.push_back(Render(fact, interner));
  std::sort(out.begin(), out.end());
  return out;
}

// Asserts that both engines derive exactly `expected` for `relation` in
// [kFactsLo, kFactsHi). The programs are non-recursive with lookahead of
// at most one period, so the ground window only needs one period of slack.
void ExpectFacts(const std::string& text, const std::string& relation,
                 std::vector<std::string> expected) {
  SCOPED_TRACE(text);
  std::sort(expected.begin(), expected.end());
  Database db;
  auto unit = Parse(text, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto model = Evaluate(unit->program, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(Rendered(model->Relation(relation).EnumerateGround(kFactsLo,
                                                               kFactsHi),
                     db.interner()),
            expected)
      << "generalized engine";
  GroundEvaluationOptions options;
  options.window_lo = kFactsLo - 10;
  options.window_hi = kFactsHi + 10;
  auto ground = EvaluateGround(unit->program, db, options);
  ASSERT_TRUE(ground.ok()) << ground.status();
  EXPECT_EQ(Rendered(GroundFactsIn(ground->idb.at(relation), kFactsLo,
                                   kFactsHi),
                     db.interner()),
            expected)
      << "ground engine";
}

TEST(SharedDescriptorTest, RepeatedDataVariableInOneAtom) {
  ExpectFacts(R"(
    .decl d2(time, data, data)
    .decl q(time, data)
    .fact d2(10n+1, "a", "a").
    .fact d2(10n+2, "a", "b").
    .fact d2(10n+3, "b", "b").
    q(t, N) :- d2(t, N, N).
  )",
              "q", {"(1,a)", "(3,b)", "(11,a)", "(13,b)"});
}

TEST(SharedDescriptorTest, ConstantWithNoPosting) {
  // "nope" is interned by the program but carried by no fact, so e has no
  // posting for it: the first rule derives nothing, the second still
  // fires through the "a" posting.
  ExpectFacts(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(10n+1, "a").
    .fact e(10n+4, "b").
    p(t, N) :- e(t, N), e(t, "nope").
    p(t + 2, N) :- e(t, N), e(t, "a").
  )",
              "p", {"(3,a)", "(13,a)"});
}

TEST(SharedDescriptorTest, ConstantPinnedAtomThePlannerReorders) {
  const std::string text = R"(
    .decl p(time, data)
    .decl e(time, data)
    .decl f(time, data)
    .decl q(time, data, data)
    .fact p(10n, "a").
    .fact p(10n+5, "b").
    .fact e(10n+1, "x").
    .fact e(10n+6, "y").
    .fact f(10n, "c").
    .fact f(10n+5, "d").
    q(t, N, M) :- p(t, N), e(t + 1, M), f(t, "c").
  )";
  // The plan must really move f(t, "c") ahead of e(t + 1, M).
  Database db;
  auto unit = Parse(text, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto normalized = Normalize(unit->program);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  ASSERT_EQ(normalized->clauses.size(), 1u);
  const ClausePlan plan =
      CompileClausePlan(normalized->clauses[0], /*allow_reorder=*/true);
  ASSERT_TRUE(plan.reordered);
  ASSERT_EQ(plan.atoms[1].body_index, 2);
  ExpectFacts(text, "q", {"(0,a,x)", "(10,a,x)"});
}

TEST(SharedDescriptorTest, RepeatedTemporalVariable) {
  // iv's "a" tuple is a grid (independent columns), its "b" tuple a band
  // T2 = T1 + 2: the diagonal meets only the grid, the +2 diagonal only
  // the band.
  const std::string text = R"(
    .decl iv(time, time, data)
    .decl diag(time, data)
    .decl near(time, data)
    .fact iv(10n, 10n, "a").
    .fact iv(10n+1, 10n+3, "b") with T2 = T1 + 2.
    diag(t, N) :- iv(t, t, N).
    near(t, N) :- iv(t, t + 2, N).
  )";
  ExpectFacts(text, "diag", {"(0,a)", "(10,a)"});
  ExpectFacts(text, "near", {"(1,b)", "(11,b)"});
}

}  // namespace
}  // namespace lrpdb
