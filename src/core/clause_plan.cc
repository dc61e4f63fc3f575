#include "src/core/clause_plan.h"

#include <algorithm>
#include <optional>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/gdb/batch.h"
#include "src/gdb/normalized_tuple.h"
#include "src/obs/metrics.h"

namespace lrpdb {
namespace {

// Compiles the probe/unify recipe of clause.body[body_index] given the
// variables already bound by earlier atoms in plan order. Updates the
// bound sets in place.
CompiledAtom CompileAtom(const NormalizedClause& clause, int body_index,
                         std::vector<bool>* temporal_bound,
                         std::vector<bool>* data_bound) {
  const NormalizedBodyAtom& atom = clause.body[body_index];
  CompiledAtom compiled;
  compiled.body_index = body_index;
  // Data columns: constants, probes through bound variables, first
  // occurrences (binds), and intra-atom repeats.
  std::vector<int> first_column(clause.num_data_vars, -1);
  for (size_t k = 0; k < atom.data_args.size(); ++k) {
    const NormalizedDataArg& arg = atom.data_args[k];
    int column = static_cast<int>(k);
    if (arg.is_constant()) {
      compiled.const_requirements.push_back({column, arg.constant});
      continue;
    }
    if ((*data_bound)[arg.variable]) {
      compiled.bound_probes.push_back({column, arg.variable});
    } else if (first_column[arg.variable] >= 0) {
      compiled.intra_equalities.emplace_back(first_column[arg.variable],
                                             column);
    } else {
      first_column[arg.variable] = column;
      compiled.binding_columns.push_back({column, arg.variable});
    }
  }
  for (const CompiledAtom::VarColumn& bind : compiled.binding_columns) {
    (*data_bound)[bind.variable] = true;
  }
  // Temporal columns, same split (used by the ground kernel; the
  // generalized kernel intersects lrps uniformly instead).
  std::vector<std::pair<int, int64_t>> first_temporal(
      clause.num_temporal_vars, {-1, 0});
  for (size_t k = 0; k < atom.temporal_args.size(); ++k) {
    auto [var, offset] = atom.temporal_args[k];
    int column = static_cast<int>(k);
    if ((*temporal_bound)[var]) {
      compiled.temporal_checks.push_back({column, var, offset});
    } else if (first_temporal[var].first >= 0) {
      compiled.temporal_intra.push_back({first_temporal[var].first,
                                         first_temporal[var].second, column,
                                         offset});
    } else {
      first_temporal[var] = {column, offset};
      compiled.temporal_binds.push_back({column, var, offset});
    }
  }
  for (const CompiledAtom::TemporalColumn& bind : compiled.temporal_binds) {
    (*temporal_bound)[bind.variable] = true;
  }
  // Raw clause bounds whose endpoints both just became bound.
  const Dbm& dbm = clause.constraint;
  auto is_bound = [&](int dbm_index) {
    return dbm_index == 0 || (*temporal_bound)[dbm_index - 1];
  };
  auto was_bound_before = [&](int dbm_index) -> bool {
    if (dbm_index == 0) return true;
    int var = dbm_index - 1;
    for (const CompiledAtom::TemporalColumn& bind : compiled.temporal_binds) {
      if (bind.variable == var) return false;
    }
    return (*temporal_bound)[var];
  };
  for (int i = 0; i <= dbm.num_vars(); ++i) {
    for (int j = 0; j <= dbm.num_vars(); ++j) {
      if (i == j) continue;
      Bound b = dbm.bound(i, j);
      if (b.is_infinite()) continue;
      if (!is_bound(i) || !is_bound(j)) continue;
      if (was_bound_before(i) && was_bound_before(j)) continue;
      compiled.new_bounds.push_back({i, j, b.value()});
    }
  }
  return compiled;
}

}  // namespace

ClausePlan CompileClausePlan(const NormalizedClause& clause) {
  ClausePlan plan;
  const size_t n = clause.body.size();
  std::vector<bool> temporal_bound(clause.num_temporal_vars, false);
  std::vector<bool> data_bound(clause.num_data_vars, false);
  std::vector<bool> placed(n, false);
  std::vector<int> order;
  order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    int chosen = -1;
    if (step == 0) {
      // Body atom 0 anchors the parallel shard split.
      chosen = static_cast<int>(step);
    } else {
      // Greedy static selectivity: prefer atoms with the most index-probe
      // opportunities (constant-pinned columns weigh heaviest, then
      // columns reachable through an already-bound variable, then
      // intra-atom repeats). Ties resolve to the lowest body index, so a
      // clause with no probes at all keeps its body order.
      int best_score = -1;
      for (size_t a = 0; a < n; ++a) {
        if (placed[a]) continue;
        const NormalizedBodyAtom& atom = clause.body[a];
        int score = 0;
        std::vector<bool> seen(clause.num_data_vars, false);
        for (const NormalizedDataArg& arg : atom.data_args) {
          if (arg.is_constant()) {
            score += 4;
          } else if (data_bound[arg.variable]) {
            score += 3;
          } else if (seen[arg.variable]) {
            score += 1;
          } else {
            seen[arg.variable] = true;
          }
        }
        if (score > best_score) {
          best_score = score;
          chosen = static_cast<int>(a);
        }
      }
    }
    placed[chosen] = true;
    order.push_back(chosen);
    plan.atoms.push_back(
        CompileAtom(clause, chosen, &temporal_bound, &data_bound));
  }
  for (size_t a = 0; a < n; ++a) {
    if (order[a] != static_cast<int>(a)) plan.reordered = true;
  }
  return plan;
}

namespace {

// A partial assignment of the clause's variables built while joining body
// atoms, plus the per-atom matched entry ids (body order) that restore
// body-order emission after a reordered join.
struct BatchBinding {
  std::vector<std::optional<Lrp>> lrps;
  Dbm constraint;
  std::vector<std::optional<DataValue>> data;
  std::vector<EntryId> ids;

  BatchBinding(int num_temporal, int num_data, size_t num_atoms, Dbm initial)
      : lrps(num_temporal),
        constraint(std::move(initial)),
        data(num_data),
        ids(num_atoms, 0) {}
};

// Extends `binding` in place with the temporal columns and constraint of
// one matched tuple (the data columns were already handled by the mask
// chain). Returns false when the combination is infeasible. `shifted`
// holds the per-column lrps already shifted into variable space by
// BatchShiftColumn.
bool UnifyTemporal(const NormalizedBodyAtom& atom,
                   const GeneralizedTuple& tuple,
                   const std::vector<std::vector<Lrp>>& shifted, size_t row,
                   BatchBinding* binding) {
  for (size_t k = 0; k < atom.temporal_args.size(); ++k) {
    int var = atom.temporal_args[k].first;
    const Lrp& var_lrp = shifted[k][row];
    std::optional<Lrp>& slot = binding->lrps[var];
    if (slot.has_value()) {
      std::optional<Lrp> merged = Lrp::Intersect(*slot, var_lrp);
      if (!merged.has_value()) return false;
      slot = *merged;
    } else {
      slot = var_lrp;
    }
  }
  // Tuple constraints: column_i - column_j <= c becomes
  // var_i - var_j <= c - offset_i + offset_j.
  const Dbm& tc = tuple.constraint();
  auto var_of = [&](int col) {  // DBM index in the binding's DBM.
    return col == 0 ? 0 : atom.temporal_args[col - 1].first + 1;
  };
  auto offset_of = [&](int col) -> int64_t {
    return col == 0 ? 0 : atom.temporal_args[col - 1].second;
  };
  for (int i = 0; i <= tc.num_vars(); ++i) {
    for (int j = 0; j <= tc.num_vars(); ++j) {
      if (i == j) continue;
      Bound b = tc.bound(i, j);
      if (b.is_infinite()) continue;
      int vi = var_of(i);
      int vj = var_of(j);
      int64_t c = b.value() - offset_of(i) + offset_of(j);
      if (vi == vj) {
        if (c < 0) return false;  // Bound between two aliases of one var.
        continue;
      }
      binding->constraint.AddDifferenceUpperBound(vi, vj, c);
    }
  }
  return binding->constraint.IsSatisfiable();
}

}  // namespace

[[nodiscard]] Status ApplyClauseBatch(
    const NormalizedClause& clause, const ClausePlan& plan,
    const std::vector<AtomSource>& sources, const NormalizeLimits& limits,
    StoreStats* stats, std::vector<GeneralizedTuple>* candidates,
    std::vector<std::vector<EntryId>>* parent_ids) {
  if (clause.always_false) return OkStatus();
  LRPDB_FAILPOINT("evaluator.apply_clause");
  ExecContext* exec = limits.exec;
  std::vector<BatchBinding> frontier;
  frontier.emplace_back(clause.num_temporal_vars, clause.num_data_vars,
                        clause.body.size(), clause.constraint);
  if (!frontier.back().constraint.IsSatisfiable()) return OkStatus();

  int64_t tuples_in = 0;
  // Probe counters go to the caller's stats, or nowhere.
  StoreStats uncounted;
  StoreStats& probes = stats != nullptr ? *stats : uncounted;
  // Scratch with deep buffers (column vectors, mask words, shift outputs)
  // is thread-local so capacity survives across the many small per-task
  // calls a round issues; each worker thread runs one apply at a time, so
  // there is no reentrancy. Contents are dead between calls — every use
  // below starts with a Fill/Reset/resize.
  thread_local TupleBlock block;
  thread_local SelectionMask mask;
  thread_local std::vector<std::vector<Lrp>> shifted;
  for (const CompiledAtom& compiled : plan.atoms) {
    const NormalizedBodyAtom& atom = clause.body[compiled.body_index];
    const AtomSource& source = sources[compiled.body_index];
    const TupleStore& store = source.relation->store();
    // Entry-id range this atom enumerates: the generation's range, narrowed
    // to the shard's slice for body atom 0.
    size_t range_lo = source.generation == TupleStore::Generation::kDelta
                          ? store.delta_lo()
                          : 0;
    size_t range_hi = source.generation == TupleStore::Generation::kDelta
                          ? store.delta_hi()
                          : store.size();
    if (compiled.body_index == 0 && source.has_range) {
      range_lo = source.range_lo;
      range_hi = source.range_hi;
    }
    const int64_t range_size = static_cast<int64_t>(range_hi - range_lo);
    // Constant-pinned postings resolve once per atom, not once per binding:
    // the smallest one is kept. A constant with no posting at all empties
    // the frontier outright.
    const std::vector<EntryId>* const_posting = nullptr;
    int const_posting_column = -1;
    bool const_missing = false;
    for (const TupleStore::DataRequirement& req :
         compiled.const_requirements) {
      const std::vector<EntryId>* posting =
          store.PostingFor(req.column, req.value);
      if (posting == nullptr) {
        const_missing = true;
        break;
      }
      if (const_posting == nullptr ||
          posting->size() < const_posting->size()) {
        const_posting = posting;
        const_posting_column = req.column;
      }
    }
    std::vector<BatchBinding> next;
    Status poll_status = OkStatus();
    for (const BatchBinding& binding : frontier) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      if (const_missing) {
        probes.CountProbe(0, range_size);
        continue;
      }
      // Per-binding probe choice: the smallest of the constant posting and
      // the postings of the bound-variable columns. Only the variable
      // lookups happen per binding.
      const std::vector<EntryId>* posting = const_posting;
      int posting_column = const_posting_column;
      bool value_missing = false;
      for (const CompiledAtom::VarColumn& probe : compiled.bound_probes) {
        const std::vector<EntryId>* var_posting =
            store.PostingFor(probe.column, *binding.data[probe.variable]);
        if (var_posting == nullptr) {
          value_missing = true;
          break;
        }
        if (posting == nullptr || var_posting->size() < posting->size()) {
          posting = var_posting;
          posting_column = probe.column;
        }
      }
      if (value_missing) {
        probes.CountProbe(0, range_size);
        continue;
      }
      if (posting != nullptr) {
        block.FillFromPosting(store, *posting, range_lo, range_hi);
      } else {
        block.FillFromRange(store, range_lo, range_hi);
      }
      const int64_t scanned = static_cast<int64_t>(block.rows());
      probes.CountProbe(scanned, range_size - scanned);
      tuples_in += scanned;
      if (block.rows() == 0) continue;
      // Fused select chain: every data filter refines the one mask; the
      // posting's own column needs no re-check.
      mask.Reset(block.rows());
      if (posting == nullptr && store.has_tombstones()) {
        // Direct range scans can still see tombstoned slots; postings are
        // pruned at Tombstone() time and need no liveness filter.
        mask.KeepIf([&](size_t row) { return store.is_live(block.id(row)); });
      }
      for (const TupleStore::DataRequirement& req :
           compiled.const_requirements) {
        if (req.column == posting_column) continue;
        BatchSelectDataEquals(block, req.column, req.value, &mask);
      }
      for (const CompiledAtom::VarColumn& probe : compiled.bound_probes) {
        if (probe.column == posting_column) continue;
        BatchSelectDataEquals(block, probe.column,
                              *binding.data[probe.variable], &mask);
      }
      for (auto [column_a, column_b] : compiled.intra_equalities) {
        BatchSelectDataColumnsEqual(block, column_a, column_b, &mask);
      }
      LRPDB_HISTOGRAM_RECORD(
          "eval.batch.mask_density",
          static_cast<int64_t>(mask.CountSet() * 100 / block.rows()));
      if (!mask.AnySet()) continue;
      // Batch shift: every temporal column of the surviving rows moves
      // into variable space (column value == var + offset) in one pass
      // per column.
      shifted.resize(atom.temporal_args.size());
      for (size_t k = 0; k < atom.temporal_args.size(); ++k) {
        BatchShiftColumn(block, static_cast<int>(k),
                         -atom.temporal_args[k].second, mask, &shifted[k]);
      }
      mask.ForEachSet([&](size_t row) {
        if (!poll_status.ok()) return;
        poll_status = PollExec(exec);
        if (!poll_status.ok()) return;
        BatchBinding extended = binding;
        for (const CompiledAtom::VarColumn& bind : compiled.binding_columns) {
          extended.data[bind.variable] = block.data(bind.column, row);
        }
        if (UnifyTemporal(atom, block.tuple(row), shifted, row, &extended)) {
          extended.ids[compiled.body_index] = block.id(row);
          next.push_back(std::move(extended));
        }
      });
      LRPDB_RETURN_IF_ERROR(poll_status);
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  LRPDB_COUNTER_ADD("eval.batch.tuples_in", tuples_in);
  if (frontier.empty()) return OkStatus();
  if (plan.reordered) {
    // Restore body-order emission: lexicographic in the body-order
    // entry-id vector. Each id combination was explored at most once, so
    // the comparison has no ties and the order is total.
    std::sort(frontier.begin(), frontier.end(),
              [](const BatchBinding& a, const BatchBinding& b) {
                return a.ids < b.ids;
              });
  }
  // Project each surviving binding onto the head: exact residue-aware
  // projection (a plain DBM projection would lose congruences of
  // projected-out variables).
  int64_t tuples_out = 0;
  for (const BatchBinding& binding : frontier) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    std::vector<Lrp> lrps(clause.num_temporal_vars);
    for (int v = 0; v < clause.num_temporal_vars; ++v) {
      if (binding.lrps[v].has_value()) lrps[v] = *binding.lrps[v];
    }
    GeneralizedTuple full(std::move(lrps), {}, binding.constraint);
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                           NormalizedTuple::Normalize(full, limits));
    std::vector<DataValue> head_data;
    head_data.reserve(clause.head_data.size());
    for (const NormalizedDataArg& arg : clause.head_data) {
      if (arg.is_constant()) {
        head_data.push_back(arg.constant);
      } else {
        const std::optional<DataValue>& v = binding.data[arg.variable];
        if (!v.has_value()) {
          return InternalError("unbound head data variable in clause head");
        }
        head_data.push_back(*v);
      }
    }
    std::vector<EntryId> parents;
    if (parent_ids != nullptr) {
      // Why-provenance: the binding already carries every atom's matched
      // entry id in body order; negated atoms are omitted (they match
      // evaluation-local complement relations).
      parents.reserve(binding.ids.size());
      for (size_t a = 0; a < clause.body.size(); ++a) {
        if (!clause.body[a].negated) parents.push_back(binding.ids[a]);
      }
    }
    for (const NormalizedTuple& piece : pieces) {
      NormalizedTuple projected =
          piece.ProjectTemporal(clause.head_temporal_vars);
      GeneralizedTuple head = projected.ToGeneralizedTuple();
      candidates->emplace_back(head.lrps(), head_data, head.constraint());
      if (parent_ids != nullptr) parent_ids->push_back(parents);
      ++tuples_out;
    }
  }
  LRPDB_COUNTER_ADD("eval.batch.tuples_out", tuples_out);
  return OkStatus();
}

GroundClausePlan CompileGroundClausePlan(const NormalizedClause& clause) {
  GroundClausePlan plan;
  // Join descriptors follow body order (the ground stores keep insertion
  // order, which reordering would change); negated atoms join nothing and
  // compile to empty descriptor sets, skipped by the kernel.
  std::vector<bool> temporal_bound(clause.num_temporal_vars, false);
  std::vector<bool> data_bound(clause.num_data_vars, false);
  for (size_t a = 0; a < clause.body.size(); ++a) {
    if (clause.body[a].negated) {
      CompiledAtom skip;
      skip.body_index = static_cast<int>(a);
      plan.join.atoms.push_back(std::move(skip));
      continue;
    }
    plan.join.atoms.push_back(CompileAtom(clause, static_cast<int>(a),
                                          &temporal_bound, &data_bound));
  }
  plan.body_bound_temporal = temporal_bound;
  plan.body_bound_data = data_bound;
  // Negation filters: how to assemble each probe fact from a binding.
  for (size_t a = 0; a < clause.body.size(); ++a) {
    const NormalizedBodyAtom& atom = clause.body[a];
    if (!atom.negated) continue;
    GroundClausePlan::NegatedProbe probe;
    probe.body_index = static_cast<int>(a);
    for (size_t k = 0; k < atom.temporal_args.size(); ++k) {
      auto [var, offset] = atom.temporal_args[k];
      if (!temporal_bound[var]) probe.vars_bound = false;
      probe.times.push_back({static_cast<int>(k), var, offset});
    }
    for (const NormalizedDataArg& arg : atom.data_args) {
      if (!arg.is_constant() && !data_bound[arg.variable]) {
        probe.vars_bound = false;
      }
      probe.data.push_back(arg);
    }
    plan.negated.push_back(std::move(probe));
  }
  // Head stage: close the clause DBM once and resolve each head variable's
  // derivation statically, as a per-binding scan would — the set of
  // assigned variables at each step is a static fact (body-bound variables
  // plus head variables solved earlier).
  Dbm closed = clause.constraint;
  closed.Close();
  std::vector<bool> assigned = temporal_bound;
  for (int v : clause.head_temporal_vars) {
    if (assigned[v]) continue;
    bool solved = false;
    for (int w = 0; w <= closed.num_vars() && !solved; ++w) {
      if (w == v + 1) continue;
      Bound up = closed.bound(v + 1, w);
      Bound down = closed.bound(w, v + 1);
      if (up.is_infinite() || down.is_infinite() ||
          up.value() != -down.value()) {
        continue;
      }
      if (w == 0 || assigned[w - 1]) {
        plan.head.derivations.push_back({v, w, up.value()});
        assigned[v] = true;
        solved = true;
      }
    }
    if (!solved) plan.head.all_pinned = false;
  }
  // Raw bounds that involve a head-solved variable (checkable only now);
  // bounds among body variables were already checked atom by atom.
  const Dbm& dbm = clause.constraint;
  auto body_bound = [&](int dbm_index) {
    return dbm_index == 0 || temporal_bound[dbm_index - 1];
  };
  auto head_assigned = [&](int dbm_index) {
    return dbm_index == 0 || assigned[dbm_index - 1];
  };
  for (int i = 0; i <= dbm.num_vars(); ++i) {
    for (int j = 0; j <= dbm.num_vars(); ++j) {
      if (i == j) continue;
      Bound b = dbm.bound(i, j);
      if (b.is_infinite()) continue;
      if (!head_assigned(i) || !head_assigned(j)) continue;
      if (body_bound(i) && body_bound(j)) continue;
      plan.head.head_bounds.push_back({i, j, b.value()});
    }
  }
  return plan;
}

}  // namespace lrpdb
