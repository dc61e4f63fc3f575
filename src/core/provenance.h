// Why-provenance for derived tuples (DESIGN.md §10, ROADMAP item 4).
//
// A generalized tuple can stand for infinitely many ground facts, which
// makes "why is this in the model?" the question a served system must
// answer to be debugged or trusted. This log records, for every tuple the
// evaluator keeps, a compact derivation origin: the normalized clause that
// produced it, the entry ids of the body tuples the clause joined (its
// parents), and the round it happened in. On top of the log, WhyProvenance
// reconstructs the full derivation graph of one tuple back to the EDB
// leaves (cycle-safe for recursive rules), and the render helpers turn that
// graph into an indented EXPLAIN WHY tree or a Graphviz DOT file.
//
// Addressing. Tuples are addressed as (relation, entry id): relations are
// interned by name into dense ProvRelationIds, entries are TupleStore
// EntryIds. An id holds until TupleStore::EraseEntries renumbers its store;
// Renumber() then rewrites the log through the same remap. Only the
// generalized evaluator records; the windowed ground evaluator, the
// correctness oracle, records nothing.
//
// Subsumption semantics. The store's exact insert can absorb a candidate
// into the same-signature entries whose union already contains it. The
// absorbed candidate still carries real derivation information, so its
// origin is attached to every absorbing entry (InsertOutcome::absorbers): a
// sound over-approximation — each recorded origin derives a subset of the
// entry's ground set, and the union of an entry's origins re-derives a
// superset of it. An entry keeps one origin per distinct derivation: a
// candidate whose (rule, parents) the entry already carries adds nothing,
// so re-applying a rule over unchanged parents (every DRed re-derive does)
// leaves the log as it was. Inserts never remove entries, so recorded
// (relation, entry) addresses stay resolvable until an erase. Result
// compaction erases without a remap for the log, so the evaluator skips it
// while recording (the model is unchanged, just reported in uncompacted
// closed form); IncrementalEvaluator::CompactRetracted erases tombstoned
// entries and hands its remaps to Renumber().
//
// Threading contract: Record() is called only from the evaluator's
// sequential insert phase (the parallel apply workers capture parent ids
// into per-task buffers; the merge is single-threaded), so the log needs no
// locking. Queries (Origins / WhyProvenance) are const and may run
// concurrently with each other, but not with Record().
//
// Cost model. Recording is opt-in (EvaluationOptions::provenance, nullptr
// by default); with no log, the capture code behind each
// `if (prov != nullptr)` is skipped.
// Recording a new origin charges the ambient ExecContext byte budget and
// bumps the lifetime counters eval.prov.{records,bytes}; a duplicate is
// skipped for free and bumps eval.prov.deduped; lookups bump
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

// Rule id of a base (extensional) fact: no clause derived it. Entries with
// no recorded origins at all are EDB leaves; kProvBaseFact exists for
// callers that want to record explicit base origins (e.g. future
// incremental ingestion).
inline constexpr int32_t kProvBaseFact = -1;

// One way a tuple was derived: clause `rule` joined `parents` (the positive
// body atoms' matched entries, in body order; negated atoms are omitted —
// they match materialized complements whose entries are evaluation-local)
// during round `round`. An entry can accumulate several origins: one per
// distinct derivation, i.e. per (rule, parents) of the candidates that
// inserted it or were absorbed into it, carrying the round of the first.
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
// are only appended, except that Forget() drops those of a retracted entry
// and Renumber() those of an erased one.
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

  // Appends one origin for `derived`, unless `derived` already carries an
  // origin with the same rule and parents: then the call is a no-op (the
  // kept origin keeps its first round) that only bumps eval.prov.deduped.
  // The duplicate check is exact — a hash table narrows the candidates,
  // the full (rule, parents) comparison decides — and costs the same
  // however many origins `derived` already has. Appending charges the
  // ambient ExecContext::Current() byte budget with the bytes it retains
  // (a governance trip unwinds as that context's Status). Carries the
  // "provenance.record" failpoint; on error nothing was appended, so the
  // log never holds a partial record.
  [[nodiscard]] Status Record(ProvRef derived, DerivationOrigin origin);

  // Every recorded origin of `ref` (empty for EDB leaves and unknown refs).
  const std::vector<DerivationOrigin>& Origins(ProvRef ref) const;
  bool HasOrigins(ProvRef ref) const { return !Origins(ref).empty(); }

  // --- Reverse index (incremental retraction, DESIGN.md §13) ---
  //
  // Record() also appends the derived ref to the dependents list of every
  // parent, so DRed-style retraction can walk derivations forward
  // (parents -> dependents) without scanning the log.

  // Refs recorded with `ref` among their origin parents. May contain
  // duplicates (one edge per distinct origin naming `ref`) and refs later
  // forgotten; callers dedupe / filter by liveness.
  const std::vector<ProvRef>& Dependents(ProvRef ref) const;

  // Drops every recorded origin of `ref` (a retraction tombstoned its
  // entry), releasing their memory and their duplicate-index entries.
  // Reverse edges pointing at `ref` stay until Renumber() erases it; the
  // lifetime registry counters are not rewound.
  void Forget(ProvRef ref);

  // Releases the dependents list of `ref`. For a ref whose listed
  // dependents a retraction has all tombstoned: a tombstoned entry is
  // never revived, so the list carries nothing a later walk needs.
  void ForgetDependents(ProvRef ref);

  // Rewrites the log after TupleStore::EraseEntries renumbered stores:
  // remaps[name] is the remap EraseEntries returned for relation `name`;
  // relations without one keep their ids. Drops the origins and dependents
  // lists of erased entries and every reverse edge into one, rewrites
  // every other ProvRef through its relation's remap, and rebuilds every
  // duplicate index (its hash covers entry and parent ids). No origin may
  // name an erased parent: DRed over-deletes every dependent of a
  // retracted entry before its slot can be erased.
  void Renumber(const std::map<std::string, std::vector<EntryId>>& remaps);

  // Retained accounting: the origins the log holds now and an estimate of
  // the bytes they, the reverse edges and the duplicate index occupy.
  // Forget(), ForgetDependents() and Renumber() subtract what they
  // release. The registry counters eval.prov.{records,bytes} are lifetime
  // totals of what Record() appended and never go down.
  int64_t records() const { return records_; }
  int64_t approx_bytes() const { return approx_bytes_; }

  // --- Derivation-graph queries ---

  struct Node {
    ProvRef ref;
    std::vector<DerivationOrigin> origins;  // Empty = EDB leaf.
  };
  // The derivation graph reachable from one root: nodes in BFS discovery
  // order (nodes[0] is the root), edges implied by each node's origins.
  // `index` maps a ref to its node position.
  struct Graph {
    std::vector<Node> nodes;
    std::map<ProvRef, size_t> index;
  };

  // The full derivation graph of `root` back to the EDB leaves. Cycle-safe
  // for recursive rules (an absorbed self-derivation makes an entry its own
  // ancestor): every ref is expanded exactly once, so the traversal
  // terminates on any graph. Carries the "provenance.lookup" failpoint.
  [[nodiscard]] StatusOr<Graph> WhyProvenance(ProvRef root) const;

  // Callbacks rendering a tuple / rule into display text. The log knows
  // only addresses; the caller owns the stores and the rule table
  // (EvalProfile::rules[i].rule renders clause i).
  using TupleLabelFn =
      std::function<std::string(const std::string& relation, EntryId entry)>;
  using RuleLabelFn = std::function<std::string(int32_t rule)>;

  // Indented EXPLAIN WHY tree of `graph` from its root down to the EDB
  // leaves. Each ref's derivations are expanded at its first occurrence
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
  using RelationOrigins = std::vector<std::vector<DerivationOrigin>>;

  // Duplicate index over one relation's origins: open addressing with
  // linear probing, capacity a power of two and at most half full. A slot
  // packs (entry id, position in that entry's origins) into 8 bytes and
  // stores no hash: a probe compares the origins themselves, so a hash
  // collision never drops a distinct origin.
  struct OriginIndex {
    std::vector<uint64_t> slots;
    size_t used = 0;

    // The slot holding an origin of `entry` with `origin`'s rule and
    // parents, or the free slot that ends the probe. Needs a non-empty
    // table.
    size_t Find(const RelationOrigins& origins, EntryId entry,
                const DerivationOrigin& origin) const;
    // Indexes origins[entry][position], which must not be indexed yet.
    void Insert(const RelationOrigins& origins, EntryId entry,
                uint32_t position);
    // Unindexes origins[entry][position], which must be indexed.
    void Erase(const RelationOrigins& origins, EntryId entry,
               uint32_t position);
  };

  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, ProvRelationId> relation_ids_;
  // origins_[relation][entry] = that entry's recorded origins; the inner
  // vector is dense by entry id and grows on first record.
  std::vector<RelationOrigins> origins_;
  // origin_index_[relation] indexes every origin origins_[relation] holds.
  std::vector<OriginIndex> origin_index_;
  // dependents_[relation][entry] = refs recorded with that entry as an
  // origin parent. Same shape as origins_.
  std::vector<std::vector<std::vector<ProvRef>>> dependents_;
  int64_t records_ = 0;
  int64_t approx_bytes_ = 0;
};

}  // namespace lrpdb

#endif  // LRPDB_CORE_PROVENANCE_H_
