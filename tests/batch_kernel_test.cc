// Correctness suite for the compiled-plan batch kernel (DESIGN.md §9), the
// generalized engine's one apply path. Every program's model must denote,
// on two full periods, exactly the facts of the windowed ground evaluator
// (tests/ground_oracle.h), the paper's ground semantics.
//
// The ground kernel shares the compiled data descriptors with the batch
// kernel (CompileAtom), so the SharedDescriptorTest cases below also pin
// those descriptors against answers written out by hand, and the
// JoinLoopTest cases pin which entry ids the batch kernel's loop walks
// (posting clipped to the atom's range, dead slots skipped) together with
// its exact probe counts.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/clause_plan.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/core/normalizer.h"
#include "src/gdb/normalized_tuple.h"
#include "src/parser/parser.h"
#include "tests/counting_new.h"
#include "tests/ground_oracle.h"

namespace lrpdb {
namespace {

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

// Evaluates `text` and asserts its model against the ground oracle.
void ExpectGroundExact(const std::string& text, GroundCheck check) {
  SCOPED_TRACE(text);
  Database db;
  auto unit = Parse(text, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->reached_fixpoint);
  ExpectMatchesGroundOracle(unit->program, db, *result, 0, 2 * check.period,
                            -check.margin, 2 * check.period + kLookahead);
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
// ground oracle. (The test name predates the removal of the
// tuple-at-a-time kernel it once compared against and of the thread-count
// grid.)
TEST_P(BatchKernelRandomTest, BitIdenticalToLegacyAcrossThreadCounts) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 9176 + 11);
  for (int iter = 0; iter < 8; ++iter) {
    const GeneratedProgram program = Generate(rng);
    ExpectGroundExact(program.text, program.check);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernelRandomTest,
                         ::testing::Range(1, 26));

// --- Fixed corner cases ---------------------------------------------------

TEST(BatchKernelTest, Example41IntervalsWithConstraints) {
  ExpectGroundExact(R"(
    .decl course(time, time, data)
    .decl problems(time, time, data)
    .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
    problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
    problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
  )",
                                    {168, 2 + ChainReach(48, 168)});
}

TEST(BatchKernelTest, NegationOverComplement) {
  ExpectGroundExact(R"(
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
  ExpectGroundExact(R"(
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
  ExpectGroundExact(R"(
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
  ExpectGroundExact(R"(
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
  const ClausePlan plan = CompileClausePlan(normalized->clauses[0]);
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

// --- The join loop's candidate ids, pinned by hand ------------------------

// e holds twelve entries, e(13n+i, ...) at id i; every third one carries
// "k". Applies clause `rule` of the program directly through
// ApplyClauseBatch over e's entry ids [lo, hi), after tombstoning `dead`.
struct RangeApply {
  std::vector<GeneralizedTuple> candidates;
  std::vector<std::vector<EntryId>> parents;
  StoreStats stats;
};

RangeApply ApplyOverRange(size_t rule, size_t lo, size_t hi,
                          std::vector<EntryId> dead = {}) {
  std::string text = R"(
    .decl e(time, data)
    .decl p(time)
    .decl q(time, data)
    p(t) :- e(t, "k").
    q(t, N) :- e(t, N).
  )";
  for (int i = 0; i < 12; ++i) {
    const std::string value =
        i % 3 == 0 ? "\"k\"" : "\"v" + std::to_string(i) + "\"";
    text += ".fact e(13n+" + std::to_string(i) + ", " + value + ").\n";
  }
  RangeApply out;
  Database db;
  auto unit = Parse(text, &db);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return out;
  auto e = db.MutableRelation("e");
  EXPECT_TRUE(e.ok()) << e.status();
  if (!e.ok()) return out;
  EXPECT_EQ((*e)->size(), 12u);
  for (EntryId id : dead) (*e)->Tombstone(id);
  auto normalized = Normalize(unit->program);
  EXPECT_TRUE(normalized.ok()) << normalized.status();
  if (!normalized.ok()) return out;
  const NormalizedClause& clause = normalized->clauses[rule];
  CandidateRows rows(/*capture=*/true);
  Status applied = ApplyClauseBatch(clause, CompileClausePlan(clause),
                                    {{*e, lo, hi}}, &out.stats, &rows);
  EXPECT_TRUE(applied.ok()) << applied;
  CandidateRows::Reader reader(rows);
  const int m = static_cast<int>(clause.head_temporal_vars.size());
  const int k = static_cast<int>(clause.head_data.size());
  for (size_t c = 0; c < rows.size; ++c) {
    out.candidates.push_back(reader.Next(m, k).ToTuple());
    const std::span<const EntryId> parents = reader.NextParents(1);
    out.parents.emplace_back(parents.begin(), parents.end());
  }
  return out;
}

// Offsets of the candidates' first temporal column (each e entry's own).
std::vector<int64_t> Offsets(const std::vector<GeneralizedTuple>& tuples) {
  std::vector<int64_t> offsets;
  for (const GeneralizedTuple& t : tuples) {
    offsets.push_back(t.lrp(0).offset());
  }
  return offsets;
}

TEST(JoinLoopTest, ConstantPostingIsClippedToTheRange) {
  // "k" is posted at {0, 3, 6, 9}; [4, 10) keeps 6 and 9.
  const RangeApply run = ApplyOverRange(/*rule=*/0, 4, 10);
  EXPECT_EQ(Offsets(run.candidates), (std::vector<int64_t>{6, 9}));
  EXPECT_EQ(run.parents, (std::vector<std::vector<EntryId>>{{6}, {9}}));
  EXPECT_EQ(run.stats.index_probes, 1);
  EXPECT_EQ(run.stats.tuples_scanned, 2);
  EXPECT_EQ(run.stats.tuples_pruned, 4);
}

TEST(JoinLoopTest, RangeScanSkipsDeadSlots) {
  // No probe: the loop walks [4, 10) itself, and the tombstoned entry 7
  // is scanned (it is in the range) but yields nothing.
  const RangeApply run = ApplyOverRange(/*rule=*/1, 4, 10, /*dead=*/{7});
  EXPECT_EQ(Offsets(run.candidates), (std::vector<int64_t>{4, 5, 6, 8, 9}));
  EXPECT_EQ(run.parents,
            (std::vector<std::vector<EntryId>>{{4}, {5}, {6}, {8}, {9}}));
  EXPECT_EQ(run.stats.index_probes, 1);
  EXPECT_EQ(run.stats.tuples_scanned, 6);
  EXPECT_EQ(run.stats.tuples_pruned, 0);
}

// --- Allocation per extension attempt ------------------------------------

// Every binding of a(t, X) (10,000 of them) finds its one b(t, X) partner
// through the posting of X, and every such extension is infeasible: a
// holds t >= 0, b holds t <= -1. The frontier is rows in flat arenas and
// unification runs in one scratch DBM, so an extension attempt allocates
// nothing; what the call allocates at all is per stage, not per attempt.
TEST(JoinLoopTest, InfeasibleExtensionsDoNotAllocate) {
  constexpr int kBindings = 10000;
  Database db;
  auto unit = Parse(R"(
    .decl a(time, data)
    .decl b(time, data)
    .decl p(time)
    p(t) :- a(t, X), b(t, X).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_TRUE(db.Declare("a", {1, 1}).ok());
  ASSERT_TRUE(db.Declare("b", {1, 1}).ok());
  auto a = db.MutableRelation("a");
  auto b = db.MutableRelation("b");
  ASSERT_TRUE(a.ok() && b.ok());
  Dbm nonnegative(1);
  nonnegative.AddLowerBound(1, 0);
  Dbm negative(1);
  negative.AddUpperBound(1, -1);
  for (DataValue x = 0; x < kBindings; ++x) {
    ASSERT_TRUE((*a)->InsertUnlessEmpty(
        GeneralizedTuple({Lrp(10, 0)}, {x}, nonnegative)));
    ASSERT_TRUE((*b)->InsertUnlessEmpty(
        GeneralizedTuple({Lrp(10, 0)}, {x}, negative)));
  }
  auto normalized = Normalize(unit->program);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  const NormalizedClause& clause = normalized->clauses[0];
  const ClausePlan plan = CompileClausePlan(clause);
  const std::vector<AtomSource> sources = {{*a, 0, (*a)->size()},
                                           {*b, 0, (*b)->size()}};
  StoreStats stats;
  CandidateRows rows;
  const int64_t before = lrpdb_testing::AllocationCount();
  Status applied = ApplyClauseBatch(clause, plan, sources, &stats, &rows);
  const int64_t allocations = lrpdb_testing::AllocationCount() - before;
  ASSERT_TRUE(applied.ok()) << applied;
  EXPECT_EQ(rows.size, 0u);
  // a's range walk, then one posting entry per binding.
  EXPECT_EQ(stats.tuples_scanned, 2 * kBindings);
  EXPECT_LT(allocations, kBindings / 20) << allocations << " allocations";
}


// The same join, with every extension feasible: a and b both hold t >= 0,
// so each of the 10,000 bindings is one residue piece (period 10, residue
// 0) and emits one candidate. The head projection reads each piece out of
// the enumerator's scratch straight into the candidate arenas, so emitting
// allocates nothing per candidate either.
TEST(JoinLoopTest, FeasibleBindingsProjectWithoutAllocating) {
  constexpr int kBindings = 10000;
  Database db;
  auto unit = Parse(R"(
    .decl a(time, data)
    .decl b(time, data)
    .decl p(time)
    p(t) :- a(t, X), b(t, X).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_TRUE(db.Declare("a", {1, 1}).ok());
  ASSERT_TRUE(db.Declare("b", {1, 1}).ok());
  auto a = db.MutableRelation("a");
  auto b = db.MutableRelation("b");
  ASSERT_TRUE(a.ok() && b.ok());
  Dbm nonnegative(1);
  nonnegative.AddLowerBound(1, 0);
  for (DataValue x = 0; x < kBindings; ++x) {
    ASSERT_TRUE((*a)->InsertUnlessEmpty(
        GeneralizedTuple({Lrp(10, 0)}, {x}, nonnegative)));
    ASSERT_TRUE((*b)->InsertUnlessEmpty(
        GeneralizedTuple({Lrp(10, 0)}, {x}, nonnegative)));
  }
  auto normalized = Normalize(unit->program);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  const NormalizedClause& clause = normalized->clauses[0];
  const ClausePlan plan = CompileClausePlan(clause);
  const std::vector<AtomSource> sources = {{*a, 0, (*a)->size()},
                                           {*b, 0, (*b)->size()}};
  StoreStats stats;
  CandidateRows rows;
  const int64_t before = lrpdb_testing::AllocationCount();
  Status applied = ApplyClauseBatch(clause, plan, sources, &stats, &rows);
  const int64_t allocations = lrpdb_testing::AllocationCount() - before;
  ASSERT_TRUE(applied.ok()) << applied;
  ASSERT_EQ(rows.size, static_cast<size_t>(kBindings));
  CandidateRows::Reader reader(rows);
  const TupleView first = reader.Next(1, 0);
  EXPECT_EQ(first.lrp(0), Lrp(10, 0));
  EXPECT_EQ(first.bound(0, 1), Bound::Finite(0));
  EXPECT_TRUE(first.bound(1, 0).is_infinite());
  EXPECT_LT(allocations, 500) << allocations << " allocations";
}

// --- Head projection against the library's projection --------------------

// The kernel's head projection reads each residue piece out of the piece
// enumerator and writes the head row itself. Over random bindings (up to
// three temporal variables, periods from {1, 2, 3, 4, 6, 7, 168}, bounds
// that include equalities, so anchored columns are exercised, and a random
// head subset in random order), its rows must be byte-identical to
// NormalizedTuple::Normalize -> ProjectTemporal -> ToGeneralizedTuple,
// piece for piece and in the same order.
TEST(ProjectionKernelTest, RowsMatchNormalizeProjectConvert) {
  constexpr int kBindings = 2000;
  constexpr int64_t kPeriods[] = {1, 2, 3, 4, 6, 7, 168};
  std::mt19937 rng(20260);
  auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  int bindings = 0;
  int64_t pieces_compared = 0;
  int multi_piece = 0;
  int empty_ground = 0;
  while (bindings < kBindings) {
    const int nt = static_cast<int>(uniform(1, 3));
    std::vector<Lrp> lrps;
    for (int v = 0; v < nt; ++v) {
      const int64_t period = kPeriods[uniform(0, 6)];
      lrps.emplace_back(period, uniform(0, period - 1));
    }
    // Bounds between every pair of DBM indices (0 is the zero variable):
    // none, an equality, or one or two inequalities.
    Dbm constraint(nt);
    for (int i = 0; i <= nt; ++i) {
      for (int j = i + 1; j <= nt; ++j) {
        switch (uniform(0, 3)) {
          case 0:
            break;
          case 1:
            constraint.AddDifferenceEquality(j, i, uniform(-12, 12));
            break;
          case 2:
            constraint.AddDifferenceUpperBound(j, i, uniform(-12, 30));
            break;
          default:
            constraint.AddDifferenceUpperBound(j, i, uniform(0, 40));
            constraint.AddDifferenceUpperBound(i, j, uniform(0, 40));
            break;
        }
      }
    }
    // One stored tuple b(t1..tT, X) and the clause h(head vars, X) :- b.
    GeneralizedRelation relation({nt, 1});
    if (!relation.InsertUnlessEmpty(GeneralizedTuple(lrps, {7}, constraint))) {
      continue;  // Unsatisfiable DBM: no binding at all.
    }
    ++bindings;
    std::vector<int> head_vars;
    for (int v = 0; v < nt; ++v) {
      if (uniform(0, 2) > 0) head_vars.push_back(v);
    }
    std::shuffle(head_vars.begin(), head_vars.end(), rng);
    NormalizedClause clause;
    clause.num_temporal_vars = nt;
    clause.num_data_vars = 1;
    clause.head_temporal_vars = head_vars;
    clause.head_data = {{.variable = 0, .constant = -1}};
    NormalizedBodyAtom atom;
    for (int v = 0; v < nt; ++v) atom.temporal_args.emplace_back(v, 0);
    atom.data_args = {{.variable = 0, .constant = -1}};
    clause.body.push_back(atom);
    clause.constraint = Dbm(nt);
    CandidateRows rows;
    Status applied =
        ApplyClauseBatch(clause, CompileClausePlan(clause),
                         {{&relation, 0, relation.size()}}, nullptr, &rows);
    ASSERT_TRUE(applied.ok()) << applied;

    auto pieces = NormalizedTuple::Normalize(relation.tuple(0));
    ASSERT_TRUE(pieces.ok()) << pieces.status();
    SCOPED_TRACE(relation.tuple(0).ToString());
    ASSERT_EQ(rows.size, pieces->size());
    if (pieces->empty()) ++empty_ground;
    if (pieces->size() > 1) ++multi_piece;
    const int mh = static_cast<int>(head_vars.size());
    const size_t stride = DbmView::BoundCount(mh);
    CandidateRows::Reader reader(rows);
    for (const NormalizedTuple& piece : *pieces) {
      const GeneralizedTuple expected =
          piece.ProjectTemporal(head_vars).ToGeneralizedTuple();
      const TupleView row = reader.Next(mh, 1);
      EXPECT_EQ(row.lrps(), expected.lrps());
      EXPECT_EQ(row.data(), expected.data());
      const Bound* want = expected.constraint().view().bounds();
      EXPECT_TRUE(std::equal(row.constraint().bounds(),
                             row.constraint().bounds() + stride, want))
          << row.ToString() << " vs " << expected.ToString();
      ++pieces_compared;
    }
  }
  // The draw reaches every shape the projection handles.
  EXPECT_GT(pieces_compared, int64_t{kBindings});
  EXPECT_GT(multi_piece, 0);
  EXPECT_GT(empty_ground, 0);
}

}  // namespace
}  // namespace lrpdb
