// Why-provenance suite (DESIGN.md §10).
//
// The load-bearing check is the replay differential: for randomized
// programs (same shapes as batch_kernel_test.cc), every recorded origin is
// re-executed — the origin's clause, stripped of its negated atoms, is
// compiled (reordering on; emission still follows body order) and applied
// over singleton relations holding exactly the recorded parent tuples —
// and at least one replayed candidate must be subsumed by the derived
// entry it was recorded for. That holds the log to its soundness contract
// (each origin derives a subset of its entry's ground set, exact on
// non-absorbed inserts). On top of that: runs at {1,2,8} threads must
// record the identical log, every IDB entry must carry at least one
// origin, and the fixed cases pin absorber attribution, cycle-safe graph
// queries, the render/DOT output, the ExecContext byte-budget charge, and
// one origin per distinct derivation with retained-byte accounting.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/core/clause_plan.h"
#include "src/core/evaluator.h"
#include "src/core/normalizer.h"
#include "src/core/provenance.h"
#include "src/gdb/database.h"
#include "src/gdb/generalized_relation.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

// One evaluation with recording on: everything a check needs to resolve
// recorded addresses back to tuples (db for EDB parents and the interner,
// the normalized clauses for replay).
struct ProvRun {
  Database db;
  std::optional<ParsedUnit> unit;
  NormalizedProgram normalized;
  EvaluationResult result;
  ProvenanceLog log;

  const Program& program() const { return unit->program; }
};

std::unique_ptr<ProvRun> RunWithProvenance(const std::string& text,
                                           int num_threads) {
  auto run = std::make_unique<ProvRun>();
  auto unit = Parse(text, &run->db);
  EXPECT_TRUE(unit.ok()) << unit.status() << "\n" << text;
  if (!unit.ok()) return nullptr;
  run->unit = std::move(*unit);
  auto normalized = Normalize(run->program());
  EXPECT_TRUE(normalized.ok()) << normalized.status();
  if (!normalized.ok()) return nullptr;
  run->normalized = std::move(*normalized);
  EvaluationOptions options;
  options.num_threads = num_threads;
  options.provenance = &run->log;
  auto result = Evaluate(run->program(), run->db, options);
  EXPECT_TRUE(result.ok()) << result.status() << "\n" << text;
  if (!result.ok()) return nullptr;
  run->result = std::move(*result);
  return run;
}

// Canonical dump of the whole log against the model: per IDB relation, per
// entry, every origin in recorded order. Compared verbatim across engine
// configurations — order included, since the determinism contract says the
// candidate stream (and therefore the record stream) is bit-identical.
std::string DumpLog(const ProvRun& run) {
  std::ostringstream out;
  for (const auto& [name, relation] : run.result.idb) {
    out << name << " (" << relation.size() << " entries)\n";
    auto rid = run.log.FindRelation(name);
    if (!rid.has_value()) continue;
    for (size_t e = 0; e < relation.size(); ++e) {
      const auto& origins =
          run.log.Origins({*rid, static_cast<EntryId>(e)});
      for (const DerivationOrigin& o : origins) {
        out << "  #" << e << " <- rule " << o.rule << " @ round " << o.round
            << ":";
        for (const ProvRef& p : o.parents) {
          out << " " << run.log.RelationName(p.relation) << "#" << p.entry;
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

// Resolves a recorded parent address to its tuple: IDB first (rule heads),
// then the extensional store.
const GeneralizedTuple* ResolveTuple(const ProvRun& run,
                                     const std::string& name, EntryId entry) {
  auto it = run.result.idb.find(name);
  if (it != run.result.idb.end()) {
    if (entry >= it->second.size()) return nullptr;
    return &it->second.tuple(entry);
  }
  auto rel = run.db.Relation(name);
  if (!rel.ok()) return nullptr;
  if (entry >= (*rel)->size()) return nullptr;
  return &(*rel)->tuple(entry);
}

// True iff `piece`'s ground set is contained in `entry_tuple`'s: insert the
// entry into a fresh relation, then an exact insert of the piece must come
// back subsumed.
bool SubsumedBy(const GeneralizedTuple& piece,
                const GeneralizedTuple& entry_tuple, RelationSchema schema) {
  NormalizeLimits limits;
  GeneralizedRelation scratch(schema);
  auto seeded = scratch.InsertIfNew(entry_tuple, limits);
  EXPECT_TRUE(seeded.ok()) << seeded.status();
  if (!seeded.ok()) return false;
  auto probe = scratch.InsertIfNew(piece, limits);
  EXPECT_TRUE(probe.ok()) << probe.status();
  return probe.ok() && !*probe;
}

// Replays one origin: compile its clause without the negated atoms (a
// reordered plan still emits in body order, the order the parents were
// recorded in), run the batch kernel over singleton parent relations, and
// demand a candidate subsumed by the derived entry. Dropping negation only
// widens the candidate set, so the original (filter-surviving) candidate
// is guaranteed to be regenerated.
void ReplayOrigin(const ProvRun& run, const std::string& head_name,
                  EntryId entry, const DerivationOrigin& origin) {
  SCOPED_TRACE(head_name + "#" + std::to_string(entry) + " rule " +
               std::to_string(origin.rule));
  ASSERT_GE(origin.rule, 0);
  ASSERT_LT(static_cast<size_t>(origin.rule), run.normalized.clauses.size());
  NormalizedClause clause = run.normalized.clauses[origin.rule];
  std::vector<NormalizedBodyAtom> positive;
  for (const NormalizedBodyAtom& atom : clause.body) {
    if (!atom.negated) positive.push_back(atom);
  }
  clause.body = std::move(positive);
  ASSERT_EQ(clause.body.size(), origin.parents.size());

  std::vector<std::unique_ptr<GeneralizedRelation>> singletons;
  std::vector<AtomSource> sources;
  NormalizeLimits limits;
  for (size_t k = 0; k < clause.body.size(); ++k) {
    const ProvRef& p = origin.parents[k];
    const std::string& pname = run.log.RelationName(p.relation);
    const GeneralizedTuple* parent = ResolveTuple(run, pname, p.entry);
    ASSERT_NE(parent, nullptr) << "unresolvable parent " << pname << "#"
                               << p.entry;
    RelationSchema schema;
    schema.temporal_arity =
        static_cast<int>(clause.body[k].temporal_args.size());
    schema.data_arity = static_cast<int>(clause.body[k].data_args.size());
    auto rel = std::make_unique<GeneralizedRelation>(schema);
    auto inserted = rel->InsertUnlessEmpty(*parent);
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    ASSERT_TRUE(*inserted) << "recorded parent is an empty tuple";
    sources.push_back({rel.get(), 0, rel->size()});
    singletons.push_back(std::move(rel));
  }

  ClausePlan plan = CompileClausePlan(clause);
  std::vector<GeneralizedTuple> candidates;
  Status applied =
      ApplyClauseBatch(clause, plan, sources, limits, nullptr, &candidates);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  ASSERT_FALSE(candidates.empty())
      << "replaying the origin's rule over its parents produced nothing";

  const GeneralizedTuple* derived = ResolveTuple(run, head_name, entry);
  ASSERT_NE(derived, nullptr);
  RelationSchema head_schema;
  head_schema.temporal_arity =
      static_cast<int>(clause.head_temporal_vars.size());
  head_schema.data_arity = static_cast<int>(clause.head_data.size());
  bool witnessed = false;
  for (const GeneralizedTuple& candidate : candidates) {
    if (SubsumedBy(candidate, *derived, head_schema)) {
      witnessed = true;
      break;
    }
  }
  EXPECT_TRUE(witnessed)
      << "no replayed candidate is contained in the derived entry";
}

// Full-run check: every IDB entry carries at least one origin, and every
// origin replays.
void ExpectCompleteAndReplayable(const ProvRun& run) {
  for (const auto& [name, relation] : run.result.idb) {
    if (relation.size() == 0) continue;
    auto rid = run.log.FindRelation(name);
    ASSERT_TRUE(rid.has_value()) << "no origins recorded for " << name;
    for (size_t e = 0; e < relation.size(); ++e) {
      const auto& origins =
          run.log.Origins({*rid, static_cast<EntryId>(e)});
      ASSERT_FALSE(origins.empty())
          << name << "#" << e << " has no recorded origin";
      for (const DerivationOrigin& origin : origins) {
        ReplayOrigin(run, name, static_cast<EntryId>(e), origin);
      }
    }
  }
}

// Runs at every thread count must record the identical derivation log
// (same model, same entry numbering, same origin stream) as a 1-thread
// reference run; the reference log must be complete and replayable.
void ExpectEquivalentLogsAndReplay(const std::string& text) {
  SCOPED_TRACE(text);
  auto reference = RunWithProvenance(text, /*num_threads=*/1);
  ASSERT_NE(reference, nullptr);
  const std::string reference_dump = DumpLog(*reference);
  EXPECT_GT(reference->log.records(), 0);
  for (int threads : {1, 2, 8}) {
    auto other = RunWithProvenance(text, threads);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(DumpLog(*other), reference_dump) << "threads=" << threads;
  }
  ExpectCompleteAndReplayable(*reference);
}

// Same program shapes as batch_kernel_test.cc: periodic EDB, recursion,
// shared-variable joins, constant pins, intra-atom equalities, stratified
// negation.
std::string Generate(std::mt19937& rng) {
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
  s += "p(t + " + std::to_string(small(rng)) + ", N) :- e(t, N).\n";
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
  if (rng() % 2 == 0) {
    s = ".decl d2(time, data, data)\n" + s;
    s += ".fact d2(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", \"a\", \"a\").\n";
    s += ".fact d2(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", \"a\", \"b\").\n";
    s += "q(t, N) :- d2(t, N, N).\n";
  }
  if (rng() % 3 == 0) {
    s = ".decl r(time, data)\n" + s;
    s += "r(t, N) :- p(t, N), !q(t, N).\n";
  }
  return s;
}

class ProvenanceRandomTest : public ::testing::TestWithParam<int> {};

// 10 seeds x 4 programs, each: log equality across {1,2,8} threads,
// completeness, and a full origin replay.
TEST_P(ProvenanceRandomTest, LogsMatchAcrossEnginesAndOriginsReplay) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7351 + 29);
  for (int iter = 0; iter < 4; ++iter) {
    ExpectEquivalentLogsAndReplay(Generate(rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvenanceRandomTest, ::testing::Range(1, 11));

// --- Fixed cases ----------------------------------------------------------

TEST(ProvenanceTest, AbsorbedCandidateAttachesOriginToAbsorber) {
  // f carries the same ground set as e, so rule 1's candidate lands on the
  // same signature as the entry rule 0 already inserted and is absorbed
  // into it — p#0 must end up with two origins from two distinct rules.
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .fact e(24n, "a").
    .fact f(24n, "a").
    p(t, N) :- e(t, N).
    p(t, N) :- f(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->result.idb.at("p").size(), 1u);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  const auto& origins = run->log.Origins({*rid, 0});
  ASSERT_EQ(origins.size(), 2u);
  EXPECT_NE(origins[0].rule, origins[1].rule);
  std::vector<std::string> parent_names;
  for (const DerivationOrigin& o : origins) {
    ASSERT_EQ(o.parents.size(), 1u);
    parent_names.push_back(run->log.RelationName(o.parents[0].relation));
  }
  EXPECT_EQ(parent_names, (std::vector<std::string>{"e", "f"}));
  ExpectCompleteAndReplayable(*run);
}

TEST(ProvenanceTest, RecursiveSelfLoopIsCycleSafe) {
  // p(24n) shifted by 24 is a subset of itself: the recursive rule's
  // candidate is absorbed into p#0 with p#0 as its own parent. The graph
  // query must terminate and the tree render must back-reference instead of
  // recursing forever.
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl p(time, data)
    .fact e(24n, "a").
    p(t, N) :- e(t, N).
    p(t + 24, N) :- p(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  ProvRef root{*rid, 0};
  ASSERT_GE(run->log.Origins(root).size(), 2u);

  auto graph = run->log.WhyProvenance(root);
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_FALSE(graph->nodes.empty());
  EXPECT_EQ(graph->nodes[0].ref, root);
  // Reachable set: p#0 itself plus the EDB leaf e#0.
  EXPECT_EQ(graph->nodes.size(), 2u);
  EXPECT_TRUE(graph->index.count(root));

  auto tuple_label = [&](const std::string& relation, EntryId entry) {
    return relation + "#" + std::to_string(entry);
  };
  auto rule_label = [&](int32_t rule) {
    return "rule-" + std::to_string(rule);
  };
  std::string tree = run->log.RenderTree(*graph, tuple_label, rule_label);
  EXPECT_NE(tree.find("[base fact]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[see above]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("rule-1"), std::string::npos) << tree;

  std::string dot = run->log.ToDot(*graph, tuple_label, rule_label);
  EXPECT_EQ(dot.rfind("digraph why", 0), 0u) << dot;
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("rule-1"), std::string::npos);
}

TEST(ProvenanceTest, WhyProvenanceOnUnknownRefIsALeafGraph) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  auto graph = log.WhyProvenance({rid, 42});
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_EQ(graph->nodes.size(), 1u);
  EXPECT_TRUE(graph->nodes[0].origins.empty());
}

TEST(ProvenanceTest, RecordRejectsUnknownRelation) {
  ProvenanceLog log;
  Status status = log.Record({/*relation=*/7, /*entry=*/0}, {});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ProvenanceTest, InternRelationIsIdempotent) {
  ProvenanceLog log;
  ProvRelationId a = log.InternRelation("p");
  ProvRelationId b = log.InternRelation("q");
  EXPECT_NE(a, b);
  EXPECT_EQ(log.InternRelation("p"), a);
  EXPECT_EQ(log.RelationName(a), "p");
  ASSERT_TRUE(log.FindRelation("q").has_value());
  EXPECT_EQ(*log.FindRelation("q"), b);
  EXPECT_FALSE(log.FindRelation("r").has_value());
  EXPECT_EQ(log.num_relations(), 2u);
}

TEST(ProvenanceTest, RecordChargesAmbientByteBudget) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  ExecContext exec;
  exec.set_byte_budget(1);
  exec.set_poll_stride(1);
  ExecContext::ScopedCurrent scope(&exec);
  DerivationOrigin origin;
  origin.rule = 0;
  origin.parents.push_back({rid, 0});
  Status status = log.Record({rid, 0}, origin);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(ProvenanceTest, AccountingTracksRecords) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  EXPECT_EQ(log.records(), 0);
  DerivationOrigin origin;
  origin.rule = 3;
  origin.round = 2;
  origin.parents.push_back({rid, 1});
  ASSERT_TRUE(log.Record({rid, 0}, origin).ok());
  EXPECT_EQ(log.records(), 1);
  EXPECT_GT(log.approx_bytes(), 0);
  const auto& origins = log.Origins({rid, 0});
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins[0], origin);
  // Unknown entry: the empty sentinel, not a crash.
  EXPECT_TRUE(log.Origins({rid, 99}).empty());
  EXPECT_FALSE(log.HasOrigins({rid, 99}));
  // A hand-recorded log answers WhyProvenance like an engine-recorded one:
  // the derived entry plus its one (leaf) parent.
  auto graph = log.WhyProvenance({rid, 0});
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->nodes.size(), 2u);
}

// --- One origin per distinct derivation -----------------------------------

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

DerivationOrigin MakeOrigin(int32_t rule, int32_t round,
                            std::vector<ProvRef> parents) {
  DerivationOrigin origin;
  origin.rule = rule;
  origin.round = round;
  origin.parents = std::move(parents);
  return origin;
}

TEST(ProvenanceDedupTest, RepeatedDerivationKeepsOneOriginEdgeAndFirstRound) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  const int64_t deduped0 = CounterValue("eval.prov.deduped");
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(1, 2, {{e, 4}, {p, 3}})).ok());
  const int64_t bytes = log.approx_bytes();
  // Same rule and parents in a later round: dropped, nothing retained.
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(1, 7, {{e, 4}, {p, 3}})).ok());
  const std::vector<DerivationOrigin>& origins = log.Origins({p, 0});
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins[0].round, 2);
  EXPECT_EQ(log.Dependents({e, 4}), (std::vector<ProvRef>{{p, 0}}));
  EXPECT_EQ(log.Dependents({p, 3}), (std::vector<ProvRef>{{p, 0}}));
  EXPECT_EQ(log.records(), 1);
  EXPECT_EQ(log.approx_bytes(), bytes);
#if !defined(LRPDB_NO_METRICS)
  EXPECT_EQ(CounterValue("eval.prov.deduped") - deduped0, 1);
#else
  (void)deduped0;
#endif
}

TEST(ProvenanceDedupTest, DifferentRuleOrParentsAreDistinctOrigins) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(1, 1, {{e, 4}})).ok());
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(2, 1, {{e, 4}})).ok());
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(1, 1, {{e, 5}})).ok());
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(1, 1, {{e, 6}})).ok());
  // Same rule and parent set in another order is another join.
  ASSERT_TRUE(log.Record({p, 2}, MakeOrigin(1, 1, {{e, 5}, {e, 6}})).ok());
  ASSERT_TRUE(log.Record({p, 2}, MakeOrigin(1, 1, {{e, 6}, {e, 5}})).ok());
  // The same (rule, parents) on another entry is not a duplicate either.
  ASSERT_TRUE(log.Record({p, 3}, MakeOrigin(1, 1, {{e, 4}})).ok());
  EXPECT_EQ(log.Origins({p, 0}).size(), 2u);
  EXPECT_EQ(log.Origins({p, 1}).size(), 2u);
  EXPECT_EQ(log.Origins({p, 2}).size(), 2u);
  EXPECT_EQ(log.Origins({p, 3}).size(), 1u);
  EXPECT_EQ(log.records(), 7);
}

TEST(ProvenanceDedupTest, ManyDistinctOriginsOnOneEntryStayFast) {
  // 20k distinct origins on one entry, each recorded twice: a duplicate
  // check that scanned the entry's origins would do ~4e8 comparisons.
  constexpr int kOrigins = 20000;
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kOrigins; ++i) {
      ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(0, pass + 1,
                                                {{e, static_cast<EntryId>(i)}}))
                      .ok());
    }
  }
  EXPECT_EQ(log.Origins({p, 0}).size(), static_cast<size_t>(kOrigins));
  EXPECT_EQ(log.records(), kOrigins);
}

// Random Record/Forget traffic over few entries, rules and parents (so
// duplicates, shared probe runs and deletions inside them are common)
// against a plain reference: per entry, the distinct (rule, parents) in
// first-recorded order.
TEST(ProvenanceDedupTest, RandomRecordAndForgetMatchReference) {
  constexpr EntryId kEntries = 48;
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  std::map<EntryId, std::vector<DerivationOrigin>> reference;
  std::mt19937 rng(17);
  for (int step = 1; step <= 30000; ++step) {
    const EntryId entry = static_cast<EntryId>(rng() % kEntries);
    if (rng() % 8 == 0) {
      log.Forget({p, entry});
      reference.erase(entry);
    } else {
      std::vector<ProvRef> parents;
      const int arity = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < arity; ++k) {
        parents.push_back({rng() % 2 == 0 ? e : p,
                           static_cast<EntryId>(rng() % 6)});
      }
      DerivationOrigin origin =
          MakeOrigin(static_cast<int32_t>(rng() % 3), step, parents);
      std::vector<DerivationOrigin>& held = reference[entry];
      bool seen = false;
      for (const DerivationOrigin& o : held) {
        seen = seen || (o.rule == origin.rule && o.parents == origin.parents);
      }
      if (!seen) held.push_back(origin);
      ASSERT_TRUE(log.Record({p, entry}, std::move(origin)).ok());
    }
    if (step % 500 != 0) continue;
    int64_t total = 0;
    for (EntryId id = 0; id < kEntries; ++id) {
      auto it = reference.find(id);
      const std::vector<DerivationOrigin> none;
      ASSERT_EQ(log.Origins({p, id}), it == reference.end() ? none : it->second)
          << "entry " << id << " after step " << step;
      total += static_cast<int64_t>(log.Origins({p, id}).size());
    }
    ASSERT_EQ(log.records(), total);
  }
}

TEST(ProvenanceDedupTest, ForgetAndPruneReleaseTheirAccounting) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(0, 1, {{e, 0}})).ok());
  const int64_t one_entry = log.approx_bytes();
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(0, 1, {{e, 0}, {e, 1}})).ok());
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(1, 1, {{p, 0}})).ok());
  EXPECT_EQ(log.records(), 3);

  log.Forget({p, 1});
  EXPECT_TRUE(log.Origins({p, 1}).empty());
  EXPECT_EQ(log.records(), 1);
  // The forgotten entry's duplicate-index slots went too: recording its old
  // derivation again counts as new.
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(1, 4, {{p, 0}})).ok());
  EXPECT_EQ(log.records(), 2);
  log.Forget({p, 1});

  // Stale edges into p#1 remain on e#0, e#1 and p#0 until a renumber
  // erases p#1.
  EXPECT_EQ(log.Dependents({e, 0}).size(), 2u);
  log.Renumber({{"p", {0, kErasedEntry}}});
  EXPECT_EQ(log.Dependents({e, 0}), (std::vector<ProvRef>{{p, 0}}));
  EXPECT_TRUE(log.Dependents({e, 1}).empty());
  EXPECT_TRUE(log.Dependents({p, 0}).empty());
  EXPECT_EQ(log.approx_bytes(), one_entry);

  log.ForgetDependents({e, 0});
  EXPECT_TRUE(log.Dependents({e, 0}).empty());
  log.Forget({p, 0});
  EXPECT_EQ(log.records(), 0);
  EXPECT_EQ(log.approx_bytes(), 0);
}

// Renumber after a DRed retraction of e#1 (which over-deleted p#1) and an
// erase of both dead slots: survivors move to their new ids, parents and
// dependents are rewritten, edges into the erased entries drop, and the
// log equals one recorded directly under the new ids, duplicate index
// included.
TEST(ProvenanceRenumberTest, ErasedEntriesDropAndSurvivorsMove) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(0, 1, {{e, 0}})).ok());
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(0, 1, {{e, 1}})).ok());
  ASSERT_TRUE(log.Record({p, 2}, MakeOrigin(0, 1, {{e, 2}})).ok());
  ASSERT_TRUE(log.Record({p, 2}, MakeOrigin(1, 2, {{p, 0}, {e, 3}})).ok());
  ASSERT_TRUE(log.Record({p, 3}, MakeOrigin(1, 3, {{p, 2}, {e, 3}})).ok());
  log.Forget({p, 1});
  log.ForgetDependents({e, 1});
  log.Renumber({{"e", {0, kErasedEntry, 1, 2}},
                {"p", {0, kErasedEntry, 1, 2}}});

  ProvenanceLog fresh;
  ASSERT_EQ(fresh.InternRelation("p"), p);
  ASSERT_EQ(fresh.InternRelation("e"), e);
  ASSERT_TRUE(fresh.Record({p, 0}, MakeOrigin(0, 1, {{e, 0}})).ok());
  ASSERT_TRUE(fresh.Record({p, 1}, MakeOrigin(0, 1, {{e, 1}})).ok());
  ASSERT_TRUE(fresh.Record({p, 1}, MakeOrigin(1, 2, {{p, 0}, {e, 2}})).ok());
  ASSERT_TRUE(fresh.Record({p, 2}, MakeOrigin(1, 3, {{p, 1}, {e, 2}})).ok());
  for (ProvRelationId rel : {p, e}) {
    for (EntryId id = 0; id < 4; ++id) {
      EXPECT_EQ(log.Origins({rel, id}), fresh.Origins({rel, id}))
          << rel << "#" << id;
      EXPECT_EQ(log.Dependents({rel, id}), fresh.Dependents({rel, id}))
          << rel << "#" << id;
    }
  }
  EXPECT_EQ(log.Dependents({e, 2}), (std::vector<ProvRef>{{p, 1}, {p, 2}}));
  EXPECT_EQ(log.records(), 4);
  EXPECT_EQ(log.approx_bytes(), fresh.approx_bytes());

  // The rebuilt duplicate index is exact under the new ids: a survivor's
  // derivation is a duplicate, the same rule over other parents is not.
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(1, 9, {{p, 0}, {e, 2}})).ok());
  ASSERT_TRUE(log.Record({p, 2}, MakeOrigin(1, 9, {{p, 1}, {e, 2}})).ok());
  EXPECT_EQ(log.records(), 4);
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(1, 9, {{p, 0}, {e, 1}})).ok());
  EXPECT_EQ(log.records(), 5);
  EXPECT_EQ(log.Origins({p, 1}).back().round, 9);
}

TEST(ProvenanceTest, NegatedAtomsAreOmittedFromParents) {
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl q(time, data)
    .decl r(time, data)
    .fact e(24n, "a").
    .fact e(24n+1, "b").
    q(t, N) :- e(t, N), e(t, "a").
    r(t, N) :- e(t, N), !q(t, N).
  )",
                               1);
  ASSERT_NE(run, nullptr);
  auto rid = run->log.FindRelation("r");
  ASSERT_TRUE(rid.has_value());
  const auto& relation = run->result.idb.at("r");
  ASSERT_GT(relation.size(), 0u);
  for (size_t e = 0; e < relation.size(); ++e) {
    const auto& origins = run->log.Origins({*rid, static_cast<EntryId>(e)});
    ASSERT_FALSE(origins.empty());
    for (const DerivationOrigin& o : origins) {
      // The clause has two body atoms but only the positive one records.
      EXPECT_EQ(o.parents.size(), 1u);
      EXPECT_EQ(run->log.RelationName(o.parents[0].relation), "e");
    }
  }
  ExpectCompleteAndReplayable(*run);
}

}  // namespace
}  // namespace lrpdb
