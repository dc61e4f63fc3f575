#include "src/core/clause_plan.h"

#include <algorithm>
#include <optional>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
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

// True iff `data` meets the atom's data filters under `binding`: the
// constant-pinned columns, the columns of variables bound by earlier atoms,
// and the intra-atom repeats.
bool MatchesData(const CompiledAtom& compiled, const BatchBinding& binding,
                 const std::vector<DataValue>& data) {
  for (const TupleStore::DataRequirement& req : compiled.const_requirements) {
    if (data[req.column] != req.value) return false;
  }
  for (const CompiledAtom::VarColumn& probe : compiled.bound_probes) {
    if (data[probe.column] != *binding.data[probe.variable]) return false;
  }
  for (auto [column_a, column_b] : compiled.intra_equalities) {
    if (data[column_a] != data[column_b]) return false;
  }
  return true;
}

// Extends `binding` in place with the temporal columns and constraint of
// one matched tuple (its data columns already passed MatchesData). Each
// column's lrp is shifted into variable space (column value == var +
// offset) and intersected with the variable's. Returns false when the
// combination is infeasible.
bool UnifyTemporal(const NormalizedBodyAtom& atom,
                   const GeneralizedTuple& tuple, BatchBinding* binding) {
  for (size_t k = 0; k < atom.temporal_args.size(); ++k) {
    auto [var, offset] = atom.temporal_args[k];
    Lrp var_lrp = tuple.lrp(static_cast<int>(k)).Shifted(-offset);
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
  for (const CompiledAtom& compiled : plan.atoms) {
    const NormalizedBodyAtom& atom = clause.body[compiled.body_index];
    const AtomSource& source = sources[compiled.body_index];
    const TupleStore& store = source.relation->store();
    const int64_t range_size = static_cast<int64_t>(source.hi - source.lo);
    // Constant-pinned postings resolve once per atom, not once per binding:
    // the smallest one is kept. A constant with no posting at all empties
    // the frontier outright.
    const std::vector<EntryId>* const_posting = nullptr;
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
      }
    }
    std::vector<BatchBinding> next;
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
        }
      }
      if (value_missing) {
        probes.CountProbe(0, range_size);
        continue;
      }
      // Candidate ids, ascending: the posting clipped to [lo, hi), or the
      // range itself.
      const EntryId* first = nullptr;
      int64_t scanned = range_size;
      if (posting != nullptr) {
        const EntryId* end = posting->data() + posting->size();
        first = std::lower_bound(posting->data(), end,
                                 static_cast<EntryId>(source.lo));
        const EntryId* last =
            std::lower_bound(first, end, static_cast<EntryId>(source.hi));
        scanned = last - first;
      }
      probes.CountProbe(scanned, range_size - scanned);
      tuples_in += scanned;
      for (int64_t i = 0; i < scanned; ++i) {
        const EntryId id = posting != nullptr
                               ? first[i]
                               : static_cast<EntryId>(source.lo + i);
        // Postings hold live ids only; a range scan skips dead slots.
        if (!store.is_live(id)) continue;
        const GeneralizedTuple& tuple = store.tuple(id);
        if (!MatchesData(compiled, binding, tuple.data())) continue;
        LRPDB_RETURN_IF_ERROR(PollExec(exec));
        BatchBinding extended = binding;
        for (const CompiledAtom::VarColumn& bind : compiled.binding_columns) {
          extended.data[bind.variable] = tuple.data()[bind.column];
        }
        if (UnifyTemporal(atom, tuple, &extended)) {
          extended.ids[compiled.body_index] = id;
          next.push_back(std::move(extended));
        }
      }
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
