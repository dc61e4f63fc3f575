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
      // Body atom 0 stays first (see CompileClausePlan in the header).
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

// The join frontier: one fixed-stride row per partial binding, in four
// arenas. A row holds the clause's T temporal variables' lrps, the T(T+1)
// bounds of its closed, satisfiable DBM, the D data variables' values and
// the matched entry id of each body atom (body order). Which slots are
// bound is the same for every row of a join stage, so an unbound slot
// simply holds a value nobody reads (Lrp() for an lrp, which is also what
// projection takes for a variable no atom binds).
struct FrontierRows {
  FlatArena<Lrp> lrps;
  FlatArena<Bound> bounds;
  FlatArena<DataValue> data;
  FlatArena<EntryId> ids;
  size_t rows = 0;

  void Clear() {
    lrps.Truncate(0);
    bounds.Truncate(0);
    data.Truncate(0);
    ids.Truncate(0);
    rows = 0;
  }
};

// True iff `data` meets the atom's data filters under the binding whose
// data values are `bound`: the constant-pinned columns, the columns of
// variables bound by earlier atoms, and the intra-atom repeats.
bool MatchesData(const CompiledAtom& compiled, const DataValue* bound,
                 ColumnSpan<DataValue> data) {
  for (const TupleStore::DataRequirement& req : compiled.const_requirements) {
    if (data[req.column] != req.value) return false;
  }
  for (const CompiledAtom::VarColumn& probe : compiled.bound_probes) {
    if (data[probe.column] != bound[probe.variable]) return false;
  }
  for (auto [column_a, column_b] : compiled.intra_equalities) {
    if (data[column_a] != data[column_b]) return false;
  }
  return true;
}

// Unifies one matched tuple's temporal columns and constraint into a
// binding held in scratch: `lrps` (the binding's lrps, updated in place)
// and `dbm` (its closed DBM, tightened and closed in place). Each column's
// lrp is shifted into variable space (column value == var + offset) and
// either binds its variable (first occurrence, per the compiled atom) or
// is intersected with it. Returns false when the combination is
// infeasible.
bool UnifyTemporal(const NormalizedBodyAtom& atom, const CompiledAtom& compiled,
                   const TupleView& tuple, Lrp* lrps, Dbm* dbm) {
  for (const CompiledAtom::TemporalColumn& bind : compiled.temporal_binds) {
    lrps[bind.variable] = tuple.lrp(bind.column).Shifted(-bind.offset);
  }
  // Lrp intersection is canonical and order-independent, so checking the
  // earlier-bound columns and then the repeats decides exactly what a
  // column-order walk would.
  auto intersect = [&](int var, int column, int64_t offset) {
    std::optional<Lrp> merged =
        Lrp::Intersect(lrps[var], tuple.lrp(column).Shifted(-offset));
    if (!merged.has_value()) return false;
    lrps[var] = *merged;
    return true;
  };
  for (const CompiledAtom::TemporalColumn& check : compiled.temporal_checks) {
    if (!intersect(check.variable, check.column, check.offset)) return false;
  }
  for (const CompiledAtom::TemporalIntra& repeat : compiled.temporal_intra) {
    if (!intersect(atom.temporal_args[repeat.column_b].first, repeat.column_b,
                   repeat.offset_b)) {
      return false;
    }
  }
  // Tuple constraints: column_i - column_j <= c becomes
  // var_i - var_j <= c - offset_i + offset_j.
  const DbmView tc = tuple.constraint();
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
      dbm->AddDifferenceUpperBound(vi, vj, c);
    }
  }
  return dbm->IsSatisfiable();
}

}  // namespace

[[nodiscard]] Status ApplyClauseBatch(const NormalizedClause& clause,
                                      const ClausePlan& plan,
                                      const std::vector<AtomSource>& sources,
                                      StoreStats* stats,
                                      CandidateRows* candidates) {
  if (clause.always_false) return OkStatus();
  LRPDB_FAILPOINT("evaluator.apply_clause");
  ExecContext* exec = ExecContext::Current();
  const size_t nt = static_cast<size_t>(clause.num_temporal_vars);
  const size_t nd = static_cast<size_t>(clause.num_data_vars);
  const size_t na = clause.body.size();
  const size_t nb = DbmView::BoundCount(clause.num_temporal_vars);
  // The unification scratch: one binding's lrps and DBM, reloaded from
  // its frontier row for every extension attempt.
  Dbm dbm = clause.constraint;
  if (!dbm.IsSatisfiable()) return OkStatus();
  std::vector<Lrp> lrps(nt);
  FrontierRows frontier;
  FrontierRows next;
  frontier.lrps.Append(lrps.data(), nt);
  frontier.bounds.Append(dbm.view().bounds(), nb);
  for (size_t v = 0; v < nd; ++v) frontier.data.push_back(0);
  for (size_t a = 0; a < na; ++a) frontier.ids.push_back(0);
  frontier.rows = 1;
  // Data variables bound by the atoms joined so far (static per stage).
  std::vector<bool> data_bound(nd, false);

  int64_t tuples_in = 0;
  // Probe counters go to the caller's stats, or nowhere.
  StoreStats uncounted;
  StoreStats& probes = stats != nullptr ? *stats : uncounted;
  for (const CompiledAtom& compiled : plan.atoms) {
    const NormalizedBodyAtom& atom = clause.body[compiled.body_index];
    const AtomSource& source = sources[compiled.body_index];
    const GeneralizedRelation& relation = *source.relation;
    const int64_t range_size = static_cast<int64_t>(source.hi - source.lo);
    for (const CompiledAtom::VarColumn& bind : compiled.binding_columns) {
      data_bound[bind.variable] = true;
    }
    // Constant-pinned postings resolve once per atom, not once per binding:
    // the smallest one is kept. A constant with no posting at all empties
    // the frontier outright, so a posting kept is never empty.
    std::span<const EntryId> const_posting;
    bool const_missing = false;
    for (const TupleStore::DataRequirement& req :
         compiled.const_requirements) {
      const std::span<const EntryId> posting =
          relation.PostingFor(req.column, req.value);
      if (posting.empty()) {
        const_missing = true;
        break;
      }
      if (const_posting.empty() || posting.size() < const_posting.size()) {
        const_posting = posting;
      }
    }
    next.Clear();
    for (size_t r = 0; r < frontier.rows; ++r) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      if (const_missing) {
        probes.CountProbe(0, range_size);
        continue;
      }
      const Lrp* row_lrps = frontier.lrps.data() + r * nt;
      const Bound* row_bounds = frontier.bounds.data() + r * nb;
      const DataValue* row_data = frontier.data.data() + r * nd;
      const EntryId* row_ids = frontier.ids.data() + r * na;
      // Per-binding probe choice: the smallest of the constant posting and
      // the postings of the bound-variable columns. Only the variable
      // lookups happen per binding.
      std::span<const EntryId> posting = const_posting;
      bool value_missing = false;
      for (const CompiledAtom::VarColumn& probe : compiled.bound_probes) {
        const std::span<const EntryId> var_posting =
            relation.PostingFor(probe.column, row_data[probe.variable]);
        if (var_posting.empty()) {
          value_missing = true;
          break;
        }
        if (posting.empty() || var_posting.size() < posting.size()) {
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
      if (!posting.empty()) {
        const EntryId* end = posting.data() + posting.size();
        first = std::lower_bound(posting.data(), end,
                                 static_cast<EntryId>(source.lo));
        const EntryId* last =
            std::lower_bound(first, end, static_cast<EntryId>(source.hi));
        scanned = last - first;
      }
      probes.CountProbe(scanned, range_size - scanned);
      tuples_in += scanned;
      for (int64_t i = 0; i < scanned; ++i) {
        const EntryId id =
            !posting.empty() ? first[i] : static_cast<EntryId>(source.lo + i);
        // Postings hold live ids only; a range scan skips dead slots.
        if (!relation.is_live(id)) continue;
        const TupleView tuple = relation.tuple(id);
        if (!MatchesData(compiled, row_data, tuple.data())) continue;
        LRPDB_RETURN_IF_ERROR(PollExec(exec));
        std::copy(row_lrps, row_lrps + nt, lrps.begin());
        dbm.Assign(DbmView(clause.num_temporal_vars, row_bounds),
                   /*closed=*/true);
        if (!UnifyTemporal(atom, compiled, tuple, lrps.data(), &dbm)) {
          continue;
        }
        next.lrps.Append(lrps.data(), nt);
        next.bounds.Append(dbm.view().bounds(), nb);
        const size_t data_at = next.data.size();
        next.data.Append(row_data, nd);
        for (const CompiledAtom::VarColumn& bind : compiled.binding_columns) {
          next.data[data_at + bind.variable] = tuple.data()[bind.column];
        }
        const size_t ids_at = next.ids.size();
        next.ids.Append(row_ids, na);
        next.ids[ids_at + compiled.body_index] = id;
        ++next.rows;
      }
    }
    std::swap(frontier, next);
    if (frontier.rows == 0) break;
  }
  // The last stage's input is dead; free it before the head projection.
  next = FrontierRows();
  LRPDB_COUNTER_ADD("eval.batch.tuples_in", tuples_in);
  if (frontier.rows == 0) return OkStatus();
  for (const NormalizedDataArg& arg : clause.head_data) {
    if (!arg.is_constant() && !data_bound[arg.variable]) {
      return InternalError("unbound head data variable in clause head");
    }
  }
  // Emission order: the rows themselves, or after a reordered join a
  // permutation sorted lexicographically by the body-order entry-id
  // vector. Each id combination was explored at most once, so the
  // comparison has no ties and the order is total.
  std::vector<uint32_t> order(frontier.rows);
  for (size_t r = 0; r < frontier.rows; ++r) {
    order[r] = static_cast<uint32_t>(r);
  }
  if (plan.reordered) {
    const EntryId* ids = frontier.ids.data();
    std::sort(order.begin(), order.end(), [ids, na](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(ids + a * na, ids + (a + 1) * na,
                                          ids + b * na, ids + (b + 1) * na);
    });
  }
  // Project each surviving binding onto the head: exact residue-aware
  // projection (a plain DBM projection would lose congruences of
  // projected-out variables). Each residue piece of the binding (period L,
  // residues r, closed quotient q) projects by keeping the head variables'
  // columns of the closed quotient, which is exact over Z; its t-space
  // image is the head row: lrps L*n + r_h and bounds L*q(i,j) + r_i - r_j,
  // which are closed because q is.
  const std::vector<int>& head_vars = clause.head_temporal_vars;
  const size_t mh = head_vars.size();
  const size_t head_stride = DbmView::BoundCount(static_cast<int>(mh));
  // DBM index of head column i (0 is the zero variable) in the binding's.
  std::vector<int> head_index{0};
  for (int v : head_vars) head_index.push_back(v + 1);
  PieceEnumerator enumerator;
  int64_t tuples_out = 0;
  std::vector<DataValue> head_data(clause.head_data.size());
  const EntryId* row_ids = nullptr;
  auto emit = [&](const PieceEnumerator::Piece& piece) {
    auto residue_of = [&](int index) -> int64_t {
      return index == 0 ? 0 : piece.residues[index - 1];
    };
    Lrp* lrps_out = candidates->lrps.Extend(mh);
    for (size_t h = 0; h < mh; ++h) {
      lrps_out[h] = Lrp(piece.period, piece.residues[head_vars[h]]);
    }
    candidates->data.Append(head_data.data(), head_data.size());
    // Off-diagonal entries in DbmView's row-major order.
    Bound* bounds_out = candidates->bounds.Extend(head_stride);
    const DbmView quotient = piece.quotient.view();
    for (size_t i = 0; i <= mh; ++i) {
      for (size_t j = 0; j <= mh; ++j) {
        if (i == j) continue;
        const Bound q = quotient.bound(head_index[i], head_index[j]);
        *bounds_out++ = q.is_infinite()
                            ? Bound::Infinity()
                            : Bound::Finite(piece.period * q.value() +
                                            residue_of(head_index[i]) -
                                            residue_of(head_index[j]));
      }
    }
    if (candidates->capture_parents) {
      for (size_t a = 0; a < na; ++a) {
        if (!clause.body[a].negated) {
          candidates->parents.push_back(row_ids[a]);
        }
      }
    }
    ++candidates->size;
    ++tuples_out;
  };
  for (uint32_t r : order) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    const DataValue* row_data = frontier.data.data() + r * nd;
    row_ids = frontier.ids.data() + r * na;
    dbm.Assign(
        DbmView(clause.num_temporal_vars, frontier.bounds.data() + r * nb),
        /*closed=*/true);
    for (size_t h = 0; h < head_data.size(); ++h) {
      const NormalizedDataArg& arg = clause.head_data[h];
      head_data[h] = arg.is_constant() ? arg.constant : row_data[arg.variable];
    }
    LRPDB_RETURN_IF_ERROR(enumerator.ForEachPiece(
        ColumnSpan<Lrp>(frontier.lrps.data() + r * nt, nt), dbm, emit));
  }
  LRPDB_COUNTER_ADD("eval.batch.tuples_out", tuples_out);
  return OkStatus();
}

[[nodiscard]] StatusOr<GeneralizedRelation> ApplyClauseOnce(
    const NormalizedClause& clause,
    const std::vector<const GeneralizedRelation*>& relations) {
  std::vector<AtomSource> sources(relations.size());
  for (size_t a = 0; a < relations.size(); ++a) {
    sources[a] = {relations[a], 0, relations[a]->size()};
  }
  CandidateRows candidates;
  LRPDB_RETURN_IF_ERROR(ApplyClauseBatch(clause, CompileClausePlan(clause),
                                         sources, /*stats=*/nullptr,
                                         &candidates));
  const int m = static_cast<int>(clause.head_temporal_vars.size());
  const int k = static_cast<int>(clause.head_data.size());
  GeneralizedRelation answers({m, k});
  CandidateRows::Reader reader(candidates);
  for (size_t c = 0; c < candidates.size; ++c) {
    LRPDB_RETURN_IF_ERROR(answers.Insert(reader.Next(m, k), /*stats=*/nullptr,
                                         TupleStore::Row::kAnswerPiece)
                              .status());
  }
  return answers;
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
