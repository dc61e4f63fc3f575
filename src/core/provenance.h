// Why-provenance for derived tuples (DESIGN.md §10, ROADMAP item 4).
//
// A generalized tuple can stand for infinitely many ground facts, which
// makes "why is this in the model?" the question a served system must
// answer to be debugged or trusted. This log records, for every tuple the
// evaluator keeps, a compact derivation origin: the normalized clause that
// produced it, the entry ids of the body tuples the clause joined (its
// parents), and the round it happened in. On top of the log, WhyProvenance
// reconstructs the full derivation graph of one tuple back to the EDB
// leaves, and the render helpers turn that graph into an indented EXPLAIN
// WHY tree or a Graphviz DOT file.
//
// Addressing. Tuples are addressed as (relation, entry id): relations are
// interned by name into dense ProvRelationIds, entries are TupleStore
// EntryIds. An id holds until TupleStore::EraseEntries renumbers its store;
// Renumber() then rewrites the log through the same remap. Only the
// generalized evaluator records; the windowed ground evaluator, the
// correctness oracle, records nothing.
//
// One origin per entry. A generalized relation means the union of its
// tuples' ground sets (paper, Section 2), so a candidate the store drops as
// subsumed adds no ground fact and its derivation is not part of the
// model. The log therefore holds exactly one origin per derived entry: the
// derivation of the candidate that inserted it. Its parents existed before
// the entry, so insertion origins form a DAG, and `explain why` prints one
// witness derivation per tuple, not every derivation. An entry with no
// origin is an EDB leaf. Inserts take fresh ids, so the evaluator records
// an entry at most once; a second Record() on one entry is a caller bug
// and returns an error. Recorded (relation, entry) addresses stay
// resolvable until an erase: the evaluator erases nothing;
// IncrementalEvaluator::CompactRetracted erases tombstoned entries and
// hands its remaps to Renumber().
//
// Threading contract: one thread at a time. Evaluation is single-threaded
// and Record() is called only from its insert phase, so the log takes no
// lock; queries (Origin / WhyProvenance) must not run concurrently with
// Record().
//
// Cost model. Recording is opt-in (EvaluationOptions::provenance, nullptr
// by default); with no log, the capture code behind each
// `if (prov != nullptr)` is skipped.
// Recording an origin charges the ambient ExecContext byte budget and
// bumps the lifetime counters eval.prov.{records,bytes}; lookups bump
// eval.prov.lookups. records() and approx_bytes() report what the log
// retains now (below), which Forget() and the dependent releases lower
// again.
#ifndef LRPDB_CORE_PROVENANCE_H_
#define LRPDB_CORE_PROVENANCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// Dense id of an interned relation name within one ProvenanceLog.
using ProvRelationId = uint32_t;

// Address of one stored tuple: an interned relation plus its stable
// TupleStore entry id.
struct ProvRef {
  ProvRelationId relation = 0;
  EntryId entry = 0;

  friend bool operator==(ProvRef a, ProvRef b) {
    return a.relation == b.relation && a.entry == b.entry;
  }
  friend bool operator!=(ProvRef a, ProvRef b) { return !(a == b); }
  friend bool operator<(ProvRef a, ProvRef b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.entry < b.entry;
  }
};

// Rule id of a base (extensional) fact: no clause derived it. An origin
// slot holding it is empty, and its entry is an EDB leaf.
inline constexpr int32_t kProvBaseFact = -1;

// How a tuple was inserted: clause `rule` joined `parents` (the positive
// body atoms' matched entries, in body order; negated atoms are omitted —
// they match materialized complements whose entries are evaluation-local)
// during round `round`.
struct DerivationOrigin {
  int32_t rule = kProvBaseFact;
  int32_t round = 0;
  std::vector<ProvRef> parents;

  friend bool operator==(const DerivationOrigin& a,
                         const DerivationOrigin& b) {
    return a.rule == b.rule && a.round == b.round && a.parents == b.parents;
  }
};

// Per-evaluation derivation log plus the query surface over it. Origins
// are only added, except that Forget() drops that of a retracted entry and
// Renumber() that of an erased one.
class ProvenanceLog {
 public:
  ProvenanceLog() = default;
  ProvenanceLog(const ProvenanceLog&) = delete;
  ProvenanceLog& operator=(const ProvenanceLog&) = delete;
  ProvenanceLog(ProvenanceLog&&) = default;
  ProvenanceLog& operator=(ProvenanceLog&&) = default;

  // Interns `name`, returning its stable dense id (idempotent).
  ProvRelationId InternRelation(const std::string& name);
  // The id `name` was interned under, if any.
  std::optional<ProvRelationId> FindRelation(const std::string& name) const;
  const std::string& RelationName(ProvRelationId id) const {
    return relation_names_[id];
  }
  size_t num_relations() const { return relation_names_.size(); }

  // Records `origin` as the derivation that inserted `derived`. An entry
  // that already has an origin, an origin whose rule is kProvBaseFact and
  // an unknown relation are caller bugs, returned as InvalidArgument.
  // Recording charges the ambient ExecContext::Current() byte budget with
  // the bytes it retains (a governance trip unwinds as that context's
  // Status). Carries the "provenance.record" failpoint; on error nothing
  // was recorded, so the log never holds a partial record.
  [[nodiscard]] Status Record(ProvRef derived, DerivationOrigin origin);

  // The origin that inserted `ref`, or nullptr for EDB leaves and unknown
  // refs.
  const DerivationOrigin* Origin(ProvRef ref) const;

  // --- Reverse index (incremental retraction, DESIGN.md §13) ---
  //
  // Record() also appends the derived ref to the dependents list of every
  // parent, so DRed-style retraction can walk derivations forward
  // (parents -> dependents) without scanning the log.

  // Refs recorded with `ref` among their origin parents, one edge per
  // dependent. May contain refs later forgotten; callers filter by
  // liveness.
  const std::vector<ProvRef>& Dependents(ProvRef ref) const;

  // Drops the origin of `ref` (a retraction tombstoned its entry),
  // releasing its memory. Reverse edges pointing at `ref` stay until
  // Renumber() erases it; the lifetime registry counters are not rewound.
  void Forget(ProvRef ref);

  // Releases the dependents list of `ref`. For a ref whose listed
  // dependents a retraction has all tombstoned: a tombstoned entry is
  // never revived, so the list carries nothing a later walk needs.
  void ForgetDependents(ProvRef ref);

  // Rewrites the log after TupleStore::EraseEntries renumbered stores:
  // remaps[name] is the remap EraseEntries returned for relation `name`;
  // relations without one keep their ids. Drops the origins and dependents
  // lists of erased entries and every reverse edge into one, and rewrites
  // every other ProvRef through its relation's remap. No origin may name
  // an erased parent: DRed over-deletes every dependent of a retracted
  // entry before its slot can be erased.
  void Renumber(const std::map<std::string, std::vector<EntryId>>& remaps);

  // Retained accounting: the origins the log holds now and an estimate of
  // the bytes they and the reverse edges occupy.
  // Forget(), ForgetDependents() and Renumber() subtract what they
  // release. The registry counters eval.prov.{records,bytes} are lifetime
  // totals of what Record() appended and never go down.
  int64_t records() const { return records_; }
  int64_t approx_bytes() const { return approx_bytes_; }

  // --- Derivation-graph queries ---

  struct Node {
    ProvRef ref;
    std::optional<DerivationOrigin> origin;  // nullopt = EDB leaf.
  };
  // The derivation graph reachable from one root: nodes in BFS discovery
  // order (nodes[0] is the root), edges implied by each node's origin.
  // `index` maps a ref to its node position.
  struct Graph {
    std::vector<Node> nodes;
    std::map<ProvRef, size_t> index;
  };

  // The full derivation graph of `root` back to the EDB leaves. Every ref
  // is expanded exactly once, so shared subtrees are visited once and the
  // traversal terminates on any graph, a hand-recorded cycle included.
  // Carries the "provenance.lookup" failpoint.
  [[nodiscard]] StatusOr<Graph> WhyProvenance(ProvRef root) const;

  // Callbacks rendering a tuple / rule into display text. The log knows
  // only addresses; the caller owns the stores and the rule table
  // (EvalProfile::rules[i].rule renders clause i).
  using TupleLabelFn =
      std::function<std::string(const std::string& relation, EntryId entry)>;
  using RuleLabelFn = std::function<std::string(int32_t rule)>;

  // Indented EXPLAIN WHY tree of `graph` from its root down to the EDB
  // leaves. Each ref's derivation is expanded at its first occurrence
  // only; later occurrences print a back-reference, which also caps the
  // output on cyclic graphs.
  std::string RenderTree(const Graph& graph, const TupleLabelFn& tuple_label,
                         const RuleLabelFn& rule_label) const;

  // Graphviz DOT rendering of `graph`: tuple nodes as boxes (EDB leaves
  // filled), one ellipse per derivation step, edges parents -> step ->
  // derived tuple, rankdir=BT so base facts sit at the bottom.
  std::string ToDot(const Graph& graph, const TupleLabelFn& tuple_label,
                    const RuleLabelFn& rule_label) const;

 private:
  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, ProvRelationId> relation_ids_;
  // origins_[relation][entry] = the origin that inserted that entry, rule
  // kProvBaseFact when it has none; dense by entry id, grows on record.
  std::vector<std::vector<DerivationOrigin>> origins_;
  // dependents_[relation][entry] = refs recorded with that entry as an
  // origin parent. Same shape as origins_.
  std::vector<std::vector<std::vector<ProvRef>>> dependents_;
  int64_t records_ = 0;
  int64_t approx_bytes_ = 0;
};

}  // namespace lrpdb

#endif  // LRPDB_CORE_PROVENANCE_H_
