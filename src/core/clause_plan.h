// Compiled clause plans and the join kernel (DESIGN.md §9) -- the one
// apply path of both evaluators.
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
// Determinism (DESIGN.md §8): candidates are emitted in lexicographic order
// of the matched entry-id vector in *body order*. Atoms may be processed
// in plan order, so the kernel records each binding's per-atom entry ids
// and, after a reordered join, sorts the final frontier by the body-order
// id vector. Every id combination is explored at most once, so the sort
// has no ties and fixes the stored insertion order — including under
// atom-0 sharding, where the plan keeps body atom 0 first (it anchors the
// shard split) and id_0 therefore stays the major key across shards. The
// emitted tuples themselves do not depend on the join order: the binding's
// final DBM is closed by the last satisfiability check and closure is
// canonical, lrp intersection is order-independent in canonical form, and
// data values do not depend on join order.
//
// The windowed ground evaluator reuses the same compiled atoms (the
// descriptors are store-agnostic column/variable indices) plus a ground
// head plan that hoists the per-binding DBM closure and head-variable
// pinning analysis out of the per-fact loop.
#ifndef LRPDB_CORE_CLAUSE_PLAN_H_
#define LRPDB_CORE_CLAUSE_PLAN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/core/normalizer.h"
#include "src/gdb/generalized_relation.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// The entries one body atom reads during a round: the entry ids [lo, hi)
// of `relation`'s store. The evaluator resolves the generation (the whole
// store, or the delta for a semi-naive pivot) and, for body atom 0, the
// parallel shard (DESIGN.md §8) into this one range when it builds tasks.
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
// through already-bound variables); body atom 0 stays first because it
// anchors the parallel evaluator's shard split. The ground evaluator
// compiles through CompileGroundClausePlan instead, in body order: its
// fact stores keep insertion order and reordering would change it.
ClausePlan CompileClausePlan(const NormalizedClause& clause);

// Applies `clause` over the given per-atom entry ranges through the join
// kernel, collecting candidate head tuples in body-order emission
// order (see the determinism note above); `stats`, when non-null, receives
// the probe counters. `parent_ids`, when non-null, captures
// why-provenance: one vector per emitted candidate holding the positive
// body atoms' matched entry ids in body order.
[[nodiscard]] Status ApplyClauseBatch(
    const NormalizedClause& clause, const ClausePlan& plan,
    const std::vector<AtomSource>& sources, const NormalizeLimits& limits,
    StoreStats* stats, std::vector<GeneralizedTuple>* candidates,
    std::vector<std::vector<EntryId>>* parent_ids = nullptr);

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
