// Compiled clause plans and the join kernel (DESIGN.md §9) -- the one
// select-join-project path of both evaluators and of the first-order query
// evaluator (src/fo/fo.h), which runs each conjunction as one clause.
//
// A ClausePlan compiles a clause's join structure once: for each body atom,
// which data columns are pinned by constants, which carry variables bound
// by earlier atoms (index probes), which bind new variables, and which
// repeat a variable within the atom; plus a join order chosen by probe
// selectivity. ApplyClauseBatch then runs one plain loop per binding and
// atom: it walks the candidate entry ids -- the smallest posting list,
// clipped to the atom's entry range, or the range itself -- checks each
// entry's data columns against the descriptors, unifies its lrps and
// constraint into the binding, and extends it.
//
// Bindings are fixed-stride rows in flat arenas (lrps, closed DBM bounds,
// data values, matched entry ids), not objects: which variables a row has
// bound is a static fact of the join stage, so a row needs no optionals,
// and unification works in one reused scratch DBM. Extending a binding
// allocates nothing. The arenas belong to the call and are freed when it
// returns, so no capacity outlives it.
//
// Determinism (DESIGN.md §9): candidates are emitted in lexicographic order
// of the matched entry-id vector in *body order*. Atoms may be processed
// in plan order, so the kernel records each binding's per-atom entry ids
// and, after a reordered join, sorts a permutation of the final frontier by
// the body-order id vector. Every id combination is explored at most once,
// so the sort has no ties and fixes the stored insertion order. The emitted
// tuples themselves do not depend on the join order: the binding's final
// DBM is closed by the last satisfiability check and closure is canonical,
// lrp intersection is order-independent in canonical form, and data values
// do not depend on join order.
//
// The windowed ground evaluator reuses the same compiled atoms (the
// descriptors are store-agnostic column/variable indices) plus a ground
// head plan that hoists the per-binding DBM closure and head-variable
// pinning analysis out of the per-fact loop.
#ifndef LRPDB_CORE_CLAUSE_PLAN_H_
#define LRPDB_CORE_CLAUSE_PLAN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/core/normalizer.h"
#include "src/gdb/flat_arena.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// The entries one body atom reads during a round: the entry ids [lo, hi)
// of `relation`. The evaluator resolves the generation (the whole
// relation, or the delta for a semi-naive pivot) into this one range.
struct AtomSource {
  const GeneralizedRelation* relation = nullptr;
  size_t lo = 0;
  size_t hi = 0;
};

// One body atom's compiled probe/unify recipe. All members are indices
// into the atom's columns and the clause's dense variable spaces, so the
// same descriptors drive both the generalized join kernel and the ground
// kernel.
struct CompiledAtom {
  // Position in clause.body (and in the AtomSource vector).
  int body_index = 0;

  // Data columns pinned by constants in the atom itself. These postings
  // resolve once per kernel invocation, not once per binding.
  std::vector<TupleStore::DataRequirement> const_requirements;

  struct VarColumn {
    int column = 0;
    int variable = 0;
  };
  // Data columns carrying a variable bound by an earlier atom in plan
  // order: per-binding index probes.
  std::vector<VarColumn> bound_probes;
  // Data columns whose variable first occurs here: extending a binding
  // copies the matched entry's value into the variable slot.
  std::vector<VarColumn> binding_columns;
  // Column pairs that repeat one variable first bound within this atom.
  std::vector<std::pair<int, int>> intra_equalities;

  // Ground-kernel temporal descriptors (column value == variable + offset).
  struct TemporalColumn {
    int column = 0;
    int variable = 0;
    int64_t offset = 0;
  };
  std::vector<TemporalColumn> temporal_checks;  // Variable bound earlier.
  std::vector<TemporalColumn> temporal_binds;   // First occurrence.
  // Intra-atom repeats: times[column_a] - offset_a == times[column_b] -
  // offset_b.
  struct TemporalIntra {
    int column_a = 0;
    int64_t offset_a = 0;
    int column_b = 0;
    int64_t offset_b = 0;
  };
  std::vector<TemporalIntra> temporal_intra;

  // Finite raw clause-constraint bounds x_i - x_j <= c (DBM indices; 0 is
  // the zero variable) whose endpoints both become bound exactly at this
  // atom: the ground kernel checks each bound once instead of rescanning
  // the whole DBM per extension.
  struct BoundCheck {
    int i = 0;
    int j = 0;
    int64_t c = 0;
  };
  std::vector<BoundCheck> new_bounds;
};

// A compiled clause: atoms in processing order plus the bookkeeping the
// kernel needs to restore body-order emission.
struct ClausePlan {
  std::vector<CompiledAtom> atoms;  // Plan (possibly reordered) order.
  bool reordered = false;           // True iff plan order != body order.
};

// Compiles `clause` once. Atoms after body atom 0 are greedily ordered by
// static probe selectivity (constant-pinned columns, then columns probed
// through already-bound variables); body atom 0 stays first, since
// choosing it by selectivity too would change the probe counts and the
// sort cost of reordered joins. The ground evaluator
// compiles through CompileGroundClausePlan instead, in body order: its
// fact stores keep insertion order and reordering would change it.
ClausePlan CompileClausePlan(const NormalizedClause& clause);

// Candidate head tuples in emission order, as flat rows: a candidate of
// head arity (m, k) is m lrps, k data values and m(m+1) DBM bounds
// appended to three arenas -- its head relation's
// store strides -- so any number of candidates is three blocks and no
// per-candidate heap object. With `capture_parents`, each candidate's
// positive body atoms' matched entry ids (body order) follow in `parents`.
// Rows do not record their arity: a Reader walks them front to back and is
// told each one's (every candidate of one clause has its head's). The
// evaluator keeps one per round and frees it at the round's end.
struct CandidateRows {
  explicit CandidateRows(bool capture = false) : capture_parents(capture) {}

  FlatArena<Lrp> lrps;
  FlatArena<DataValue> data;
  FlatArena<Bound> bounds;
  FlatArena<EntryId> parents;
  bool capture_parents = false;
  size_t size = 0;  // Candidates appended.

  // Reads the rows in order.
  class Reader {
   public:
    explicit Reader(const CandidateRows& rows) : rows_(&rows) {}
    // The next candidate, of temporal arity m and data arity k; valid
    // until the rows are appended to.
    TupleView Next(int m, int k) {
      const TupleView row(rows_->lrps.data() + lrp_pos_, m,
                          rows_->data.data() + data_pos_, k,
                          rows_->bounds.data() + bounds_pos_);
      lrp_pos_ += m;
      data_pos_ += k;
      bounds_pos_ += DbmView::BoundCount(m);
      return row;
    }
    // The next candidate's `n` parent ids (capture_parents only).
    std::span<const EntryId> NextParents(size_t n) {
      const std::span<const EntryId> ids(rows_->parents.data() + parent_pos_,
                                         n);
      parent_pos_ += n;
      return ids;
    }

   private:
    const CandidateRows* rows_;
    size_t lrp_pos_ = 0;
    size_t data_pos_ = 0;
    size_t bounds_pos_ = 0;
    size_t parent_pos_ = 0;
  };
};

// Applies `clause` over the given per-atom entry ranges through the join
// kernel, appending candidate head tuples to `candidates` in body-order
// emission order (see the determinism note above): one per residue piece
// of each binding, so each has a non-empty ground set and closed bounds,
// as TupleStore::Row::kClosedPiece requires. Parent ids follow when it
// captures them (why-provenance; negated atoms, which match
// evaluation-local complement relations, are omitted). `stats`, when
// non-null, receives the probe counters. Polls ExecContext::Current() per
// binding.
[[nodiscard]] Status ApplyClauseBatch(const NormalizedClause& clause,
                                      const ClausePlan& plan,
                                      const std::vector<AtomSource>& sources,
                                      StoreStats* stats,
                                      CandidateRows* candidates);

// Applies `clause` once over the whole of `relations` (one per body atom,
// in body order) and returns the head relation: every candidate inserted
// with TupleStore::Row::kAnswerPiece, so a piece one kept piece of its
// signature contains is dropped and one row remains per other residue
// piece (a piece only several rows cover together stays: the union test
// would cost more than the row, see EXPERIMENTS.md E3). The one-shot
// answer path of QueryAtom and the FO evaluator.
[[nodiscard]] StatusOr<GeneralizedRelation> ApplyClauseOnce(
    const NormalizedClause& clause,
    const std::vector<const GeneralizedRelation*>& relations);

// --- Ground-kernel compilation (shared with src/core/ground_evaluator.cc) ---

// Once-per-clause analysis of the ground evaluator's head stage: the
// closed clause DBM is computed one time, every head variable's derivation
// (base variable + offset read off tight closure equalities) is resolved
// statically, and only the raw bounds that become checkable at the head
// stage are rechecked per binding.
struct GroundHeadPlan {
  // Derivation for one head variable: value = base + offset, where base is
  // DBM index 0 (the constant zero) or a variable assigned earlier.
  struct Derivation {
    int variable = 0;  // Clause temporal variable to assign.
    int base = 0;      // DBM index: 0, or var + 1.
    int64_t offset = 0;
  };
  std::vector<Derivation> derivations;  // In head_temporal_vars order.
  // False when some head variable cannot be pinned statically; the kernel
  // reports UnimplementedError for any surviving binding.
  bool all_pinned = true;
  // Raw finite bounds involving at least one head variable, checkable only
  // after the derivations ran.
  std::vector<CompiledAtom::BoundCheck> head_bounds;
};

// A clause compiled for the windowed ground kernel: body-order compiled
// atoms, negation filter descriptors, and the hoisted head plan.
struct GroundClausePlan {
  ClausePlan join;  // Body order, never reordered.
  // One filter per negated body atom: how to assemble the probe fact from
  // a binding. Variables are guaranteed bound when `vars_bound`; otherwise
  // the kernel reports InvalidArgumentError for any surviving binding.
  struct NegatedProbe {
    int body_index = 0;
    bool vars_bound = true;
    std::vector<CompiledAtom::TemporalColumn> times;  // value = var + offset.
    std::vector<NormalizedDataArg> data;
  };
  std::vector<NegatedProbe> negated;
  GroundHeadPlan head;
  // Temporal variables bound by the positive body atoms (dense flags); the
  // head stage treats these plus solved head variables as assigned.
  std::vector<bool> body_bound_temporal;
  std::vector<bool> body_bound_data;
};

GroundClausePlan CompileGroundClausePlan(const NormalizedClause& clause);

}  // namespace lrpdb

#endif  // LRPDB_CORE_CLAUSE_PLAN_H_
