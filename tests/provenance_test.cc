// Why-provenance suite (DESIGN.md §10).
//
// The load-bearing check is the replay differential: for randomized
// programs (same shapes as batch_kernel_test.cc), every recorded origin is
// re-executed — the origin's clause, stripped of its negated atoms, is
// compiled (reordering on; emission still follows body order) and applied
// over singleton relations holding exactly the recorded parent tuples —
// and at least one replayed candidate must equal the derived entry it was
// recorded for. That holds the log to its contract: an entry's one origin
// is the derivation that inserted it. On top of that: every IDB entry must
// carry exactly one origin, and the fixed cases pin that a subsumed
// candidate records nothing, cycle-safe graph queries, the render/DOT
// output, the ExecContext byte-budget charge, the refusal of a second
// origin, and retained-byte accounting.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/core/clause_plan.h"
#include "src/core/evaluator.h"
#include "src/core/normalizer.h"
#include "src/core/provenance.h"
#include "src/gdb/database.h"
#include "src/gdb/tuple_store.h"
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

std::unique_ptr<ProvRun> RunWithProvenance(const std::string& text) {
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
  options.provenance = &run->log;
  auto result = Evaluate(run->program(), run->db, options);
  EXPECT_TRUE(result.ok()) << result.status() << "\n" << text;
  if (!result.ok()) return nullptr;
  run->result = std::move(*result);
  return run;
}

// Resolves a recorded parent address to (a copy of) its tuple: IDB first
// (rule heads), then the extensional store.
std::optional<GeneralizedTuple> ResolveTuple(const ProvRun& run,
                                             const std::string& name,
                                             EntryId entry) {
  auto it = run.result.idb.find(name);
  if (it != run.result.idb.end()) {
    if (entry >= it->second.size()) return std::nullopt;
    return it->second.tuple(entry).ToTuple();
  }
  auto rel = run.db.Relation(name);
  if (!rel.ok()) return std::nullopt;
  if (entry >= (*rel)->size()) return std::nullopt;
  return (*rel)->tuple(entry).ToTuple();
}

// True iff `piece`'s ground set is contained in `entry_tuple`'s: insert the
// entry into a fresh relation, then an exact insert of the piece must come
// back subsumed (or dropped as empty).
bool SubsumedBy(const GeneralizedTuple& piece,
                const GeneralizedTuple& entry_tuple, RelationSchema schema) {
  GeneralizedRelation scratch(schema);
  auto seeded = scratch.Insert(entry_tuple);
  EXPECT_TRUE(seeded.ok()) << seeded.status();
  if (!seeded.ok()) return false;
  auto probe = scratch.Insert(piece);
  EXPECT_TRUE(probe.ok()) << probe.status();
  return probe.ok() && !probe->inserted;
}

// Replays one origin: compile its clause without the negated atoms (a
// reordered plan still emits in body order, the order the parents were
// recorded in), run the batch kernel over singleton parent relations, and
// demand a candidate equal to the derived entry (containment both ways):
// the entry is the candidate its origin inserted. Dropping negation only
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
  for (size_t k = 0; k < clause.body.size(); ++k) {
    const ProvRef& p = origin.parents[k];
    const std::string& pname = run.log.RelationName(p.relation);
    const std::optional<GeneralizedTuple> parent =
        ResolveTuple(run, pname, p.entry);
    ASSERT_TRUE(parent.has_value()) << "unresolvable parent " << pname << "#"
                               << p.entry;
    RelationSchema schema;
    schema.temporal_arity =
        static_cast<int>(clause.body[k].temporal_args.size());
    schema.data_arity = static_cast<int>(clause.body[k].data_args.size());
    auto rel = std::make_unique<GeneralizedRelation>(schema);
    ASSERT_TRUE(rel->InsertUnlessEmpty(*parent))
        << "recorded parent is an empty tuple";
    sources.push_back({rel.get(), 0, rel->size()});
    singletons.push_back(std::move(rel));
  }

  ClausePlan plan = CompileClausePlan(clause);
  CandidateRows rows;
  Status applied = ApplyClauseBatch(clause, plan, sources, nullptr, &rows);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  ASSERT_GT(rows.size, 0u)
      << "replaying the origin's rule over its parents produced nothing";

  const std::optional<GeneralizedTuple> derived =
      ResolveTuple(run, head_name, entry);
  ASSERT_TRUE(derived.has_value());
  RelationSchema head_schema;
  head_schema.temporal_arity =
      static_cast<int>(clause.head_temporal_vars.size());
  head_schema.data_arity = static_cast<int>(clause.head_data.size());
  bool witnessed = false;
  CandidateRows::Reader reader(rows);
  for (size_t c = 0; c < rows.size; ++c) {
    const GeneralizedTuple candidate =
        reader.Next(head_schema.temporal_arity, head_schema.data_arity)
            .ToTuple();
    if (SubsumedBy(candidate, *derived, head_schema) &&
        SubsumedBy(*derived, candidate, head_schema)) {
      witnessed = true;
      break;
    }
  }
  EXPECT_TRUE(witnessed) << "no replayed candidate equals the derived entry";
}

// Full-run check: every IDB entry carries exactly one origin, and it
// replays.
void ExpectCompleteAndReplayable(const ProvRun& run) {
  for (const auto& [name, relation] : run.result.idb) {
    if (relation.size() == 0) continue;
    auto rid = run.log.FindRelation(name);
    ASSERT_TRUE(rid.has_value()) << "no origins recorded for " << name;
    for (size_t e = 0; e < relation.size(); ++e) {
      const DerivationOrigin* origin =
          run.log.Origin({*rid, static_cast<EntryId>(e)});
      ASSERT_NE(origin, nullptr)
          << name << "#" << e << " has no recorded origin";
      ReplayOrigin(run, name, static_cast<EntryId>(e), *origin);
    }
  }
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

// 10 seeds x 4 programs, each: completeness and a full origin replay.
TEST_P(ProvenanceRandomTest, LogsAreCompleteAndOriginsReplay) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7351 + 29);
  for (int iter = 0; iter < 4; ++iter) {
    const std::string text = Generate(rng);
    SCOPED_TRACE(text);
    auto run = RunWithProvenance(text);
    ASSERT_NE(run, nullptr);
    EXPECT_GT(run->log.records(), 0);
    ExpectCompleteAndReplayable(*run);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvenanceRandomTest, ::testing::Range(1, 11));

// --- Fixed cases ----------------------------------------------------------

TEST(ProvenanceTest, AbsorbedCandidateLeavesTheInsertingOrigin) {
  // f carries the same ground set as e, so rule 1's candidate lands on the
  // same signature as the entry rule 0 already inserted and is absorbed
  // into it. It adds no ground fact, so p#0 keeps the one origin that
  // inserted it: rule 0 over e#0.
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl f(time, data)
    .decl p(time, data)
    .fact e(24n, "a").
    .fact f(24n, "a").
    p(t, N) :- e(t, N).
    p(t, N) :- f(t, N).
  )");
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->result.idb.at("p").size(), 1u);
  auto rid = run->log.FindRelation("p");
  ASSERT_TRUE(rid.has_value());
  const DerivationOrigin* origin = run->log.Origin({*rid, 0});
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->rule, 0);
  ASSERT_EQ(origin->parents.size(), 1u);
  EXPECT_EQ(run->log.RelationName(origin->parents[0].relation), "e");
  EXPECT_EQ(run->log.records(), 1);
  ExpectCompleteAndReplayable(*run);
}

TEST(ProvenanceTest, RecursiveSelfLoopIsCycleSafe) {
  // p(24n) shifted by 24 is a subset of itself: the recursive rule's
  // candidate is absorbed into p#0 and records nothing, so p#0 keeps its
  // one origin from rule 0. s#0 and r#0 both read p#0, so r#0's tree
  // reaches p#0 twice and back-references the second time.
  auto run = RunWithProvenance(R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl s(time, data)
    .decl r(time, data)
    .fact e(24n, "a").
    p(t, N) :- e(t, N).
    p(t + 24, N) :- p(t, N).
    s(t, N) :- p(t, N).
    r(t, N) :- p(t, N), s(t, N).
  )");
  ASSERT_NE(run, nullptr);
  auto pid = run->log.FindRelation("p");
  auto rid = run->log.FindRelation("r");
  ASSERT_TRUE(pid.has_value());
  ASSERT_TRUE(rid.has_value());
  const ProvRef p0{*pid, 0};
  const DerivationOrigin* origin = run->log.Origin(p0);
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->rule, 0);

  auto p_graph = run->log.WhyProvenance(p0);
  ASSERT_TRUE(p_graph.ok()) << p_graph.status();
  // Reachable set: p#0 itself plus the EDB leaf e#0.
  ASSERT_EQ(p_graph->nodes.size(), 2u);
  EXPECT_EQ(p_graph->nodes[0].ref, p0);

  const ProvRef root{*rid, 0};
  auto graph = run->log.WhyProvenance(root);
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_FALSE(graph->nodes.empty());
  EXPECT_EQ(graph->nodes[0].ref, root);
  // r#0, p#0, s#0 and e#0, each once.
  EXPECT_EQ(graph->nodes.size(), 4u);
  EXPECT_TRUE(graph->index.count(p0));

  auto tuple_label = [&](const std::string& relation, EntryId entry) {
    return relation + "#" + std::to_string(entry);
  };
  auto rule_label = [&](int32_t rule) {
    return "rule-" + std::to_string(rule);
  };
  std::string tree = run->log.RenderTree(*graph, tuple_label, rule_label);
  EXPECT_NE(tree.find("[base fact]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[see above]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("rule-3"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("rule-1"), std::string::npos) << tree;

  std::string dot = run->log.ToDot(*graph, tuple_label, rule_label);
  EXPECT_EQ(dot.rfind("digraph why", 0), 0u) << dot;
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("rule-3"), std::string::npos);

  // The evaluator's insertion origins form a DAG, but the traversal
  // terminates on any graph: a hand-recorded self-loop is expanded once.
  ProvenanceLog log;
  const ProvRelationId q = log.InternRelation("q");
  DerivationOrigin loop;
  loop.rule = 0;
  loop.parents.push_back({q, 0});
  ASSERT_TRUE(log.Record({q, 0}, loop).ok());
  auto cyclic = log.WhyProvenance({q, 0});
  ASSERT_TRUE(cyclic.ok()) << cyclic.status();
  EXPECT_EQ(cyclic->nodes.size(), 1u);
  tree = log.RenderTree(*cyclic, tuple_label, rule_label);
  EXPECT_NE(tree.find("[see above]"), std::string::npos) << tree;
}

TEST(ProvenanceTest, WhyProvenanceOnUnknownRefIsALeafGraph) {
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  auto graph = log.WhyProvenance({rid, 42});
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_EQ(graph->nodes.size(), 1u);
  EXPECT_FALSE(graph->nodes[0].origin.has_value());
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
  const DerivationOrigin* held = log.Origin({rid, 0});
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, origin);
  // Unknown entry: no origin, not a crash.
  EXPECT_EQ(log.Origin({rid, 99}), nullptr);
  // A hand-recorded log answers WhyProvenance like an engine-recorded one:
  // the derived entry plus its one (leaf) parent.
  auto graph = log.WhyProvenance({rid, 0});
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->nodes.size(), 2u);
}

// --- One origin per entry ------------------------------------------------

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

TEST(ProvenanceLogTest, SecondRecordOnOneEntryIsAnErrorAndChangesNothing) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  const int64_t recorded0 = CounterValue("eval.prov.records");
  const DerivationOrigin first = MakeOrigin(1, 2, {{e, 4}, {p, 3}});
  ASSERT_TRUE(log.Record({p, 0}, first).ok());
  const int64_t bytes = log.approx_bytes();
  // The same derivation in a later round, and another derivation: both
  // refused, and the log is as it was.
  for (const DerivationOrigin& again :
       {MakeOrigin(1, 7, {{e, 4}, {p, 3}}), MakeOrigin(2, 3, {{e, 5}})}) {
    const Status status = log.Record({p, 0}, again);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  }
  // An EDB leaf has no origin: recording the base-fact rule is refused too.
  EXPECT_EQ(log.Record({p, 1}, MakeOrigin(kProvBaseFact, 0, {})).code(),
            StatusCode::kInvalidArgument);
  ASSERT_NE(log.Origin({p, 0}), nullptr);
  EXPECT_EQ(*log.Origin({p, 0}), first);
  EXPECT_EQ(log.Origin({p, 1}), nullptr);
  EXPECT_EQ(log.Dependents({e, 4}), (std::vector<ProvRef>{{p, 0}}));
  EXPECT_EQ(log.Dependents({p, 3}), (std::vector<ProvRef>{{p, 0}}));
  EXPECT_TRUE(log.Dependents({e, 5}).empty());
  EXPECT_EQ(log.records(), 1);
  EXPECT_EQ(log.approx_bytes(), bytes);
#if !defined(LRPDB_NO_METRICS)
  EXPECT_EQ(CounterValue("eval.prov.records") - recorded0, 1);
#else
  (void)recorded0;
#endif
}

// Random Record/Forget traffic over few entries, rules and parents against
// a plain reference: per entry, the origin recorded since its last Forget.
// A Record on an entry that holds an origin is refused and changes nothing.
TEST(ProvenanceLogTest, RandomRecordAndForgetMatchReference) {
  constexpr EntryId kEntries = 48;
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  std::map<EntryId, DerivationOrigin> reference;
  std::mt19937 rng(17);
  for (int step = 1; step <= 30000; ++step) {
    const EntryId entry = static_cast<EntryId>(rng() % kEntries);
    if (rng() % 3 == 0) {
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
      const bool fresh = reference.emplace(entry, origin).second;
      const Status status = log.Record({p, entry}, std::move(origin));
      ASSERT_EQ(status.ok(), fresh) << status << " at step " << step;
    }
    if (step % 500 != 0) continue;
    for (EntryId id = 0; id < kEntries; ++id) {
      auto it = reference.find(id);
      const DerivationOrigin* held = log.Origin({p, id});
      ASSERT_EQ(held != nullptr, it != reference.end())
          << "entry " << id << " after step " << step;
      if (held != nullptr) {
        ASSERT_EQ(*held, it->second)
            << "entry " << id << " after step " << step;
      }
    }
    ASSERT_EQ(log.records(), static_cast<int64_t>(reference.size()));
  }
}

TEST(ProvenanceLogTest, ForgetAndPruneReleaseTheirAccounting) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(0, 1, {{e, 0}})).ok());
  const int64_t one_entry = log.approx_bytes();
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(0, 1, {{e, 0}, {e, 1}})).ok());
  EXPECT_EQ(log.records(), 2);

  log.Forget({p, 1});
  EXPECT_EQ(log.Origin({p, 1}), nullptr);
  EXPECT_EQ(log.records(), 1);
  // The forgotten entry holds no origin any more, so a record is accepted.
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
// log equals one recorded directly under the new ids.
TEST(ProvenanceRenumberTest, ErasedEntriesDropAndSurvivorsMove) {
  ProvenanceLog log;
  const ProvRelationId p = log.InternRelation("p");
  const ProvRelationId e = log.InternRelation("e");
  ASSERT_TRUE(log.Record({p, 0}, MakeOrigin(0, 1, {{e, 0}})).ok());
  ASSERT_TRUE(log.Record({p, 1}, MakeOrigin(0, 1, {{e, 1}})).ok());
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
  ASSERT_TRUE(fresh.Record({p, 1}, MakeOrigin(1, 2, {{p, 0}, {e, 2}})).ok());
  ASSERT_TRUE(fresh.Record({p, 2}, MakeOrigin(1, 3, {{p, 1}, {e, 2}})).ok());
  for (ProvRelationId rel : {p, e}) {
    for (EntryId id = 0; id < 4; ++id) {
      const DerivationOrigin* moved = log.Origin({rel, id});
      const DerivationOrigin* expected = fresh.Origin({rel, id});
      ASSERT_EQ(moved != nullptr, expected != nullptr) << rel << "#" << id;
      if (moved != nullptr) {
        EXPECT_EQ(*moved, *expected) << rel << "#" << id;
      }
      EXPECT_EQ(log.Dependents({rel, id}), fresh.Dependents({rel, id}))
          << rel << "#" << id;
    }
  }
  EXPECT_EQ(log.Dependents({e, 2}), (std::vector<ProvRef>{{p, 1}, {p, 2}}));
  EXPECT_EQ(log.records(), 3);
  EXPECT_EQ(log.approx_bytes(), fresh.approx_bytes());

  // A survivor keeps its origin under its new id, so recording it again is
  // refused; the first id past the survivors takes the next insert.
  EXPECT_FALSE(log.Record({p, 1}, MakeOrigin(1, 9, {{p, 0}, {e, 1}})).ok());
  ASSERT_TRUE(log.Record({p, 3}, MakeOrigin(1, 9, {{p, 2}, {e, 1}})).ok());
  EXPECT_EQ(log.records(), 4);
  EXPECT_EQ(log.Origin({p, 3})->round, 9);
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
  )");
  ASSERT_NE(run, nullptr);
  auto rid = run->log.FindRelation("r");
  ASSERT_TRUE(rid.has_value());
  const auto& relation = run->result.idb.at("r");
  ASSERT_GT(relation.size(), 0u);
  for (size_t e = 0; e < relation.size(); ++e) {
    const DerivationOrigin* o = run->log.Origin({*rid, static_cast<EntryId>(e)});
    ASSERT_NE(o, nullptr);
    // The clause has two body atoms but only the positive one records.
    EXPECT_EQ(o->parents.size(), 1u);
    EXPECT_EQ(run->log.RelationName(o->parents[0].relation), "e");
  }
  ExpectCompleteAndReplayable(*run);
}

}  // namespace
}  // namespace lrpdb
