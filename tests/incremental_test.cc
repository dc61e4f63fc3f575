// Differential gauntlet for incremental maintenance (DESIGN.md §13):
// randomized programs driven through random add/retract schedules must
// stay semantically identical to a from-scratch refixpoint of the updated
// database after every batch.
//
// The oracle for each step is deliberately built from the *surviving live
// EDB entries* (not from a replayed fact list): retraction's unit is the
// stored model — a fact absorbed at insert time has no entry of its own,
// so retracting it is a miss and does not resurrect what its absorber
// covered (src/core/incremental.h). Copying the live entries into a fresh
// database and refixpointing gives exactly the semantics the evaluator
// promises.
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/constraints/dbm.h"
#include "src/core/incremental.h"
#include "src/fo/fo.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

constexpr int64_t kWindowLo = 0;
constexpr int64_t kWindowHi = 200;

// One incremental run: a parsed program + database + evaluator.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<ParsedUnit> unit;
  std::unique_ptr<IncrementalEvaluator> inc;
};

// `fill`, when given, adds EDB facts after parsing and before the initial
// fixpoint.
Instance MakeRun(const std::string& text,
                 const std::function<void(Database*)>& fill = nullptr) {
  Instance run;
  run.db = std::make_unique<Database>();
  auto unit = Parse(text, run.db.get());
  EXPECT_TRUE(unit.ok()) << unit.status() << "\n" << text;
  run.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  if (fill) fill(run.db.get());
  run.inc = std::make_unique<IncrementalEvaluator>(run.unit->program,
                                                   run.db.get());
  EXPECT_TRUE(run.inc->Initialize().ok()) << text;
  return run;
}

// Copies the surviving live EDB entries of `db` into `scratch`, which must
// be fresh.
void CopyLiveEdb(const Database& db, Database* scratch) {
  // Copy the interner first so the program's interned rule constants keep
  // their ids in the scratch database.
  scratch->interner() = db.interner();
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.Relation(name);
    ASSERT_TRUE(rel.ok()) << rel.status();
    ASSERT_TRUE(scratch->Declare(name, (*rel)->schema()).ok());
    auto dst = scratch->MutableRelation(name);
    ASSERT_TRUE(dst.ok()) << dst.status();
    for (EntryId id : (*rel)->live_ids()) {
      ASSERT_TRUE((*dst)->RestoreEntry((*rel)->tuple(id)).ok());
    }
  }
}

// Refixpoints the surviving live EDB of `db` from scratch and returns the
// canonical ground-window fingerprint — the semantic oracle.
std::string OracleFingerprint(const Program& program, const Database& db) {
  Database scratch;
  CopyLiveEdb(db, &scratch);
  IncrementalEvaluator oracle(program, &scratch);
  auto init = oracle.Initialize();
  EXPECT_TRUE(init.ok()) << init;
  return oracle.Fingerprint(kWindowLo, kWindowHi);
}

// Every store of the run, EDB then IDB, by relation name.
std::map<std::string, const TupleStore*> Stores(const Instance& run) {
  std::map<std::string, const TupleStore*> stores;
  for (const std::string& name : run.db->RelationNames()) {
    stores[name] = *run.db->Relation(name);
  }
  for (const auto& [name, relation] : run.inc->Result().idb) {
    stores[name] = &relation;
  }
  return stores;
}

// After CompactRetracted: no store keeps a dead slot, every index holds,
// and the provenance of every live entry names only live entries — DRed
// over-deleted every dependent of an erased entry, so nothing dangles.
void ExpectCompacted(const Instance& run) {
  const std::map<std::string, const TupleStore*> stores = Stores(run);
  for (const auto& [name, store] : stores) {
    EXPECT_EQ(store->size(), store->live_size()) << name;
    Status consistent = store->CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << name << ": " << consistent;
  }
  const ProvenanceLog& log = *run.inc->provenance();
  auto live = [&](ProvRef ref) {
    auto it = stores.find(log.RelationName(ref.relation));
    return it != stores.end() && ref.entry < it->second->size() &&
           it->second->is_live(ref.entry);
  };
  for (const auto& [name, relation] : run.inc->Result().idb) {
    std::optional<ProvRelationId> rel = log.FindRelation(name);
    if (!rel.has_value()) continue;
    for (EntryId id : relation.live_ids()) {
      for (const DerivationOrigin& origin : log.Origins({*rel, id})) {
        for (ProvRef parent : origin.parents) {
          EXPECT_TRUE(live(parent)) << name << "#" << id << " names "
                                    << log.RelationName(parent.relation)
                                    << "#" << parent.entry;
        }
      }
    }
  }
  for (const auto& [name, store] : stores) {
    std::optional<ProvRelationId> rel = log.FindRelation(name);
    if (!rel.has_value()) continue;
    for (EntryId id = 0; id < store->size(); ++id) {
      for (ProvRef dep : log.Dependents({*rel, id})) {
        EXPECT_TRUE(live(dep)) << "edge " << name << "#" << id << " -> "
                               << log.RelationName(dep.relation) << "#"
                               << dep.entry;
      }
    }
  }
}

// Random negation-free programs over a periodic EDB, adapted from
// batch_kernel_test's generator: joins with shared data variables,
// recursion, constant-pinned atoms. `allow_negation` adds a stratified
// negated rule, over the derived q or over the EDB e that retractions hit,
// so the fallback (full recompute) path joins the gauntlet.
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
    s += rng() % 2 == 0 ? "r(t, N) :- p(t, N), !q(t, N).\n"
                        : "r(t, N) :- p(t, N), !e(t, N).\n";
  }
  return s;
}

// One random update step: an add batch of fresh facts or a retract batch
// aimed at previously added (sometimes never-present) facts.
struct Step {
  bool add = false;
  // Whether CompactRetracted runs after the batch.
  bool compact = false;
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
    step.compact = rng() % 3 == 0;
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

// Drives one program through one schedule, checking after every step that
// the run's ground fingerprint equals the from-scratch oracle. Steps marked
// `compact` run CompactRetracted first.
void RunGauntlet(const std::string& text, const std::vector<Step>& schedule) {
  SCOPED_TRACE(text);
  Instance run = MakeRun(text);
  for (size_t si = 0; si < schedule.size(); ++si) {
    const Step& step = schedule[si];
    SCOPED_TRACE("step " + std::to_string(si) +
                 (step.add ? " (add)" : " (retract)"));
    std::vector<FactUpdate> batch = BuildBatch(step, run.db.get());
    Status status = step.add ? run.inc->AddFacts(batch)
                             : run.inc->RetractFacts(batch);
    ASSERT_TRUE(status.ok()) << status;
    ASSERT_TRUE(run.inc->at_fixpoint());
    if (step.compact) {
      run.inc->CompactRetracted();
      ExpectCompacted(run);
    }
    EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
              OracleFingerprint(run.unit->program, *run.db));
  }
}

class IncrementalRandomTest : public ::testing::TestWithParam<int> {};

// 18 seeds x 6 programs = 108 random programs, each with a 6-step random
// add/retract schedule (compacting after about a third of the steps), each
// step checked against the from-scratch oracle. (The test name predates the
// removal of the tuple-at-a-time kernel and of the thread-count grid.) Two of
// the six programs allow negation, so the fallback path is exercised
// throughout.
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

// AddFacts and RetractFacts are entry points: they install the evaluator's
// context, so their own store work is governed. The absorbed duplicate's
// containment test closes DBMs, which charge steps beyond the poll count,
// and a budget trip injected into its insert trips the context instead of
// surfacing as an ungoverned error.
TEST(IncrementalTest, UpdatesChargeClosureStepsToTheContext) {
  Database db;
  auto unit = Parse(kChain, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ExecContext exec;
  EvaluationOptions options;
  options.exec = &exec;
  IncrementalEvaluator inc(unit->program, &db, options);
  ASSERT_TRUE(inc.Initialize().ok());
  const FactUpdate seeded{
      "e", GeneralizedTuple::Unconstrained({Lrp(24, 1)}, {db.Constant("a")})};
  auto charged = [&exec] { return exec.steps() - exec.polls(); };

  int64_t before = charged();
  ASSERT_TRUE(inc.AddFacts({seeded}).ok());
  EXPECT_GT(charged(), before) << "the absorbed add charged no steps";
  before = charged();
  ASSERT_TRUE(inc.RetractFacts({seeded}).ok());
  EXPECT_GT(charged(), before) << "the retraction charged no steps";

  failpoint::DisarmAll();
  failpoint::Arm("tuple_store.insert", failpoint::Mode::kTripBudget);
  const Status added = inc.AddFacts({seeded});
  failpoint::DisarmAll();
  EXPECT_EQ(added.code(), StatusCode::kResourceExhausted) << added;
  EXPECT_TRUE(exec.tripped());
  EXPECT_TRUE(IsGovernanceTrip(&exec, added)) << added;
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

// Over-deleted entries stay as dead slots until CompactRetracted; the
// stored-tuple count reports only the live ones.
TEST(IncrementalTest, TuplesStoredCountsOnlyLiveEntries) {
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
  int64_t live = 0;
  size_t slots = 0;
  for (const auto& [name, relation] : run.inc->Result().idb) {
    for ([[maybe_unused]] EntryId id : relation.live_ids()) ++live;
    slots += relation.size();
  }
  EXPECT_EQ(live, 2);    // p and q of "b".
  EXPECT_EQ(slots, 4u);  // Plus the over-deleted p and q of "a".
  EXPECT_EQ(run.inc->Result().TuplesStored(), live);
}

// Every live tuple of every store, rendered, in store order.
std::map<std::string, std::vector<std::string>> LiveTuples(
    const Instance& run) {
  std::map<std::string, std::vector<std::string>> tuples;
  for (const auto& [name, store] : Stores(run)) {
    for (EntryId id : store->live_ids()) {
      tuples[name].push_back(store->tuple(id).ToString(&run.db->interner()));
    }
  }
  return tuples;
}

// CompactRetracted erases the dead slots and renumbers the survivors: the
// model, its fingerprint and the live tuples' order stay, the provenance
// of every surviving derived entry reaches only live entries, readers see
// only live entries, and later updates still match the oracle.
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
  const auto live_tuples = LiveTuples(run);
  EXPECT_GT(run.inc->CompactRetracted(), 0u);
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi), fp);
  EXPECT_EQ(LiveTuples(run), live_tuples);
  ExpectCompacted(run);
  // The surviving q entry's derivation graph reaches only live entries,
  // down to the surviving e fact.
  ProvenanceLog& log = *run.inc->provenance();
  const TupleStore& q = run.inc->Result().idb.at("q");
  ASSERT_EQ(q.size(), 1u);
  auto graph = log.WhyProvenance({*log.FindRelation("q"), 0});
  ASSERT_TRUE(graph.ok()) << graph.status();
  const std::map<std::string, const TupleStore*> stores = Stores(run);
  std::vector<std::string> reached;
  for (const ProvenanceLog::Node& node : graph->nodes) {
    const std::string& name = log.RelationName(node.ref.relation);
    const TupleStore& store = *stores.at(name);
    ASSERT_LT(node.ref.entry, store.size()) << name;
    EXPECT_TRUE(store.is_live(node.ref.entry)) << name;
    reached.push_back(
        name + " " + store.tuple(node.ref.entry).ToString(&run.db->interner()));
  }
  ASSERT_EQ(reached.size(), 3u);
  EXPECT_EQ(reached.back(), "e " + live_tuples.at("e").front());
  // Whole-relation readers over the EDB and the model (FO queries: a
  // selection, a projection, and a negation whose active domain comes from
  // the stored constants) give what they give over a fresh evaluation of
  // the live facts.
  Database live;
  CopyLiveEdb(*run.db, &live);
  IncrementalEvaluator oracle(run.unit->program, &live);
  ASSERT_TRUE(oracle.Initialize().ok());
  const auto& model = run.inc->Result().idb;
  const auto& expected = oracle.Result().idb;
  auto answer = [](const char* source, Database* db,
                   const std::map<std::string, GeneralizedRelation>& idb) {
    std::map<std::string, RelationSchema> schemas;
    for (const auto& [name, relation] : idb) {
      schemas.emplace(name, relation.schema());
    }
    auto query = ParseFoQuery(source, db, &schemas);
    EXPECT_TRUE(query.ok()) << query.status();
    FoOptions options;
    options.extra_relations = &idb;
    auto result = EvaluateFoQuery(*query, *db, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->relation.EnumerateGround(kWindowLo, kWindowHi);
  };
  for (const char* source :
       {"e(t, N)", "exists N (q(t, N))", "q(t, N) | ~e(t, N)"}) {
    EXPECT_EQ(answer(source, run.db.get(), model),
              answer(source, &live, expected))
        << source;
  }
  // Updates keep working on the renumbered stores and log.
  ASSERT_TRUE(run.inc
                  ->AddFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 9)}, {run.db->Constant("c")})}})
                  .ok());
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
  ASSERT_TRUE(run.inc
                  ->RetractFacts({FactUpdate{
                      "e", GeneralizedTuple::Unconstrained(
                               {Lrp(24, 5)}, {run.db->Constant("b")})}})
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
// leave stale reverse edges on the pinned g facts and dead slots in every
// store (both reclaimed at compaction).
TEST(IncrementalTest, ProvenanceStaysBoundedOverLongUpdateStream) {
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
  auto slots = [&run] {
    size_t total = 0;
    for (const auto& [unused, store] : Stores(run)) total += store->size();
    return total;
  };
  size_t slots_at_32 = 0;
  size_t slots_at_last_compaction = 0;
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
    if (cycle % kCompactEvery == kCompactEvery - 1) {
      run.inc->CompactRetracted();
      ExpectCompacted(run);
      slots_at_last_compaction = slots();
    }
    if (cycle + 1 == 32) {
      bytes_at_32 = run.inc->provenance()->approx_bytes();
      slots_at_32 = slots();
    }
  }
  const int64_t bytes_at_end = run.inc->provenance()->approx_bytes();
  ASSERT_GT(bytes_at_32, 0);
  EXPECT_LE(static_cast<double>(bytes_at_end), 1.2 * bytes_at_32)
      << "provenance bytes: " << bytes_at_32 << " after 32 cycles, "
      << bytes_at_end << " after " << kCycles;
  // Compaction reclaims the retracted slots, so the slot count right after
  // one stays flat (cycle 31 compacts, so slots_at_32 is such a count).
  ASSERT_GT(slots_at_32, 0u);
  EXPECT_LE(static_cast<double>(slots_at_last_compaction), 1.2 * slots_at_32)
      << "slots after compaction: " << slots_at_32 << " at cycle 32, "
      << slots_at_last_compaction << " at the last";
  EXPECT_EQ(run.inc->Fingerprint(kWindowLo, kWindowHi),
            OracleFingerprint(run.unit->program, *run.db));
}

// Negation falls back to a full recompute, which must read only the live
// entries: the negated relation is derived (p) in the first program and
// the EDB relation the retraction hits (e) in the second.
TEST(IncrementalTest, NegationFallsBackToFullRecompute) {
  for (const char* text : {R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl r(time, data)
    .fact e(24n+1, "a").
    .fact e(24n+3, "b").
    p(t + 1, N) :- e(t, N).
    r(t, N) :- e(t, N), !p(t, N).
  )",
                           R"(
    .decl d(time, data)
    .decl e(time, data)
    .decl r(time, data)
    .fact d(24n+1, "a").
    .fact d(24n+5, "b").
    .fact e(24n+1, "a").
    r(t, N) :- d(t, N), !e(t, N).
  )"}) {
    SCOPED_TRACE(text);
    Instance run = MakeRun(text);
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
    const std::string fp = run.inc->Fingerprint(kWindowLo, kWindowHi);
    EXPECT_EQ(fp, OracleFingerprint(run.unit->program, *run.db));
    EXPECT_NE(fp.find("idb r:\n  ("), std::string::npos) << fp;
  }
}

// --- Work proportional to the delta ---------------------------------------

// bench_i1's copy + join program over its fact shape, at 5,000 facts.
constexpr char kCopyJoin[] = R"(
  .decl ev(time, data)
  .decl derived(time, data)
  .decl joined(time, data)
  derived(t, N) :- ev(t, N).
  joined(t, N) :- derived(t, N), ev(t, N).
)";
constexpr int kCopyJoinFacts = 5000;
constexpr int kCopyJoinBatch = 64;

// Base fact `i` (period-24 lrps over a bounded window, 512 data constants;
// pairwise distinct), or live fact `i` (a fresh data constant, so absent
// from the base EDB).
GeneralizedTuple CopyJoinFact(int i, bool live, Database* db) {
  const int64_t lo = live ? i : i % 97;
  Dbm constraint(1);
  constraint.AddLowerBound(1, lo);
  constraint.AddUpperBound(1, lo + 24 * 400);
  const std::string value =
      live ? "live" + std::to_string(i) : "item" + std::to_string(i % 512);
  return GeneralizedTuple({Lrp(24, i % 24)}, {db->Constant(value)},
                          constraint);
}

// The base EDB, plus the live batch when `with_batch`, evaluated from
// scratch.
Instance MakeCopyJoinRun(bool with_batch) {
  return MakeRun(kCopyJoin, [with_batch](Database* db) {
    // The program carries no .fact, so the parser never declared the EDB.
    EXPECT_TRUE(db->Declare("ev", RelationSchema{1, 1}).ok());
    for (int i = 0; i < kCopyJoinFacts; ++i) {
      EXPECT_TRUE(db->AddTuple("ev", CopyJoinFact(i, false, db)).ok());
    }
    for (int i = 0; with_batch && i < kCopyJoinBatch; ++i) {
      EXPECT_TRUE(db->AddTuple("ev", CopyJoinFact(i, true, db)).ok());
    }
  });
}

int64_t SumCandidates(const EvaluationResult& result) {
  int64_t sum = 0;
  for (const RoundStats& round : result.rounds) sum += round.candidates;
  return sum;
}

// A maintained add does work proportional to its batch, not to the model:
// each live fact yields at most one derived and one joined candidate,
// while refixpointing the enlarged database re-derives every fact's.
// bench_i1 times the same comparison at 1e5 facts; candidate counts are
// exact where wall times are not, so this bar cannot flake.
TEST(IncrementalTest, AddBatchWorkIsProportionalToTheDelta) {
  Instance run = MakeCopyJoinRun(/*with_batch=*/false);
  std::vector<FactUpdate> batch;
  for (int i = 0; i < kCopyJoinBatch; ++i) {
    batch.push_back(FactUpdate{"ev", CopyJoinFact(i, true, run.db.get())});
  }
  ASSERT_TRUE(run.inc->AddFacts(batch).ok());
  ASSERT_TRUE(run.inc->at_fixpoint());
  const int64_t maintained = SumCandidates(run.inc->Result());
  EXPECT_GT(maintained, 0);
  EXPECT_LE(maintained, 2 * kCopyJoinBatch);

  Instance full = MakeCopyJoinRun(/*with_batch=*/true);
  EXPECT_GE(SumCandidates(full.inc->Result()), 10 * maintained);
  // [0, 48] holds live facts 0..48 (live fact i starts at t = i).
  EXPECT_EQ(run.inc->Fingerprint(0, 48), full.inc->Fingerprint(0, 48));
}

}  // namespace
}  // namespace lrpdb
