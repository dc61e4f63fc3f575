#include "src/core/ground_evaluator.h"

#include <algorithm>
#include <vector>

#include "src/common/failpoint.h"
#include "src/core/clause_plan.h"
#include "src/core/normalizer.h"
#include "src/obs/metrics.h"

namespace lrpdb {
namespace {

// Flat frontier of the compiled ground kernel: one row per surviving
// binding, temporal and data values in dense variable-indexed strides.
// Assignedness is static per join stage (a slot is written exactly when the
// plan says its variable binds), so rows carry plain values rather than
// optionals.
struct FlatFrontier {
  std::vector<int64_t> temporal;
  std::vector<DataValue> data;
  size_t rows = 0;
};

// One (clause, pivot) application through the compiled plan. Atoms join in
// body order and facts enumerate in ascending index order, so insertion
// order is deterministic. Every constraint bound is checked at the first
// atom where both endpoints are assigned (equivalent to rechecking the
// whole clause DBM per extension, since assigned values never change).
[[nodiscard]] Status ApplyGroundPlan(
    const NormalizedClause& clause, const GroundClausePlan& plan,
    const std::vector<const GroundFactStore*>& facts,
    GroundFactStore& head_facts, int pivot, bool use_delta,
    const GroundEvaluationOptions& options, ExecContext* exec, bool* grew,
    GroundEvaluationResult* result) {
  LRPDB_FAILPOINT("ground.apply");
  const size_t nt = static_cast<size_t>(clause.num_temporal_vars);
  const size_t nd = static_cast<size_t>(clause.num_data_vars);
  // Batch telemetry (the ground analog of the non-ground kernel's
  // counters): facts scanned per stage, survivor density, head emissions.
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  // Scratch buffers are thread-local so their capacity survives the many
  // small per-round calls (one apply at a time per thread, no reentrancy);
  // every use starts with an assign/clear.
  thread_local FlatFrontier frontier;
  thread_local FlatFrontier next;
  thread_local std::vector<int64_t> t_row;
  thread_local std::vector<DataValue> d_row;
  frontier.temporal.assign(nt, 0);
  frontier.data.assign(nd, 0);
  frontier.rows = 1;
  t_row.assign(nt, 0);
  d_row.assign(nd, 0);
  for (const CompiledAtom& compiled : plan.join.atoms) {
    const NormalizedBodyAtom& atom = clause.body[compiled.body_index];
    if (atom.negated) continue;
    const GroundFactStore* store = facts[compiled.body_index];
    const bool delta_only = use_delta && compiled.body_index == pivot;
    const size_t lo = delta_only ? store->delta_lo() : 0;
    const size_t hi = delta_only ? store->delta_hi() : store->size();
    const int64_t scanned =
        static_cast<int64_t>(frontier.rows) * static_cast<int64_t>(hi - lo);
    tuples_in += scanned;
    next.temporal.clear();
    next.data.clear();
    next.rows = 0;
    for (size_t b = 0; b < frontier.rows; ++b) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      const int64_t* bt = frontier.temporal.data() + b * nt;
      const DataValue* bd = frontier.data.data() + b * nd;
      for (size_t fi = lo; fi < hi; ++fi) {
        const GroundTuple& fact = store->fact(fi);
        bool ok = true;
        for (const TupleStore::DataRequirement& req :
             compiled.const_requirements) {
          if (fact.data[req.column] != req.value) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const CompiledAtom::VarColumn& probe : compiled.bound_probes) {
          if (fact.data[probe.column] != bd[probe.variable]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (auto [column_a, column_b] : compiled.intra_equalities) {
          if (fact.data[column_a] != fact.data[column_b]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const CompiledAtom::TemporalColumn& chk :
             compiled.temporal_checks) {
          if (fact.times[chk.column] - chk.offset != bt[chk.variable]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const CompiledAtom::TemporalIntra& ti : compiled.temporal_intra) {
          if (fact.times[ti.column_a] - ti.offset_a !=
              fact.times[ti.column_b] - ti.offset_b) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        // Commit the new bindings into scratch, then check exactly the
        // clause bounds that became decidable at this atom.
        std::copy(bt, bt + nt, t_row.begin());
        std::copy(bd, bd + nd, d_row.begin());
        for (const CompiledAtom::VarColumn& bind : compiled.binding_columns) {
          d_row[bind.variable] = fact.data[bind.column];
        }
        for (const CompiledAtom::TemporalColumn& bind :
             compiled.temporal_binds) {
          t_row[bind.variable] = fact.times[bind.column] - bind.offset;
        }
        auto value_of = [&](int i) -> int64_t {
          return i == 0 ? 0 : t_row[i - 1];
        };
        for (const CompiledAtom::BoundCheck& bc : compiled.new_bounds) {
          if (value_of(bc.i) - value_of(bc.j) > bc.c) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        next.temporal.insert(next.temporal.end(), t_row.begin(), t_row.end());
        next.data.insert(next.data.end(), d_row.begin(), d_row.end());
        ++next.rows;
      }
    }
    std::swap(frontier, next);
    if (frontier.rows == 0) {
      LRPDB_COUNTER_ADD("eval.batch.tuples_in", tuples_in);
      return OkStatus();
    }
  }
  LRPDB_COUNTER_ADD("eval.batch.tuples_in", tuples_in);
  // Negated atoms filter the surviving rows; safety guarantees their
  // variables are bound by the positive atoms.
  for (const GroundClausePlan::NegatedProbe& probe : plan.negated) {
    if (frontier.rows == 0) return OkStatus();
    if (!probe.vars_bound) {
      return InvalidArgumentError(
          "negated atom with variables unbound by positive atoms");
    }
    const GroundFactStore* store = facts[probe.body_index];
    FlatFrontier kept;
    GroundTuple probe_fact;
    probe_fact.times.resize(probe.times.size());
    probe_fact.data.resize(probe.data.size());
    for (size_t b = 0; b < frontier.rows; ++b) {
      const int64_t* bt = frontier.temporal.data() + b * nt;
      const DataValue* bd = frontier.data.data() + b * nd;
      for (size_t k = 0; k < probe.times.size(); ++k) {
        probe_fact.times[k] = bt[probe.times[k].variable] +
                              probe.times[k].offset;
      }
      for (size_t k = 0; k < probe.data.size(); ++k) {
        probe_fact.data[k] = probe.data[k].is_constant()
                                 ? probe.data[k].constant
                                 : bd[probe.data[k].variable];
      }
      if (store->count(probe_fact) == 0) {
        kept.temporal.insert(kept.temporal.end(), bt, bt + nt);
        kept.data.insert(kept.data.end(), bd, bd + nd);
        ++kept.rows;
      }
    }
    frontier = std::move(kept);
  }
  // Head stage: the pinning analysis and DBM closure ran at compile time;
  // per row only the static derivations and the head-stage bounds remain.
  if (frontier.rows > 0 && !plan.head.all_pinned) {
    return UnimplementedError(
        "ground baseline requires every head temporal variable to be "
        "pinned to a body variable or constant");
  }
  bool head_data_bound = true;
  for (const NormalizedDataArg& arg : clause.head_data) {
    if (!arg.is_constant() && !plan.body_bound_data[arg.variable]) {
      head_data_bound = false;
    }
  }
  for (size_t b = 0; b < frontier.rows; ++b) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    int64_t* bt = frontier.temporal.data() + b * nt;
    const DataValue* bd = frontier.data.data() + b * nd;
    for (const GroundHeadPlan::Derivation& d : plan.head.derivations) {
      bt[d.variable] = (d.base == 0 ? 0 : bt[d.base - 1]) + d.offset;
    }
    auto value_of = [&](int i) -> int64_t {
      return i == 0 ? 0 : bt[i - 1];
    };
    bool ok = true;
    for (const CompiledAtom::BoundCheck& bc : plan.head.head_bounds) {
      if (value_of(bc.i) - value_of(bc.j) > bc.c) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    GroundTuple fact;
    fact.times.reserve(clause.head_temporal_vars.size());
    fact.data.reserve(clause.head_data.size());
    bool in_window = true;
    for (int v : clause.head_temporal_vars) {
      int64_t t = bt[v];
      in_window = in_window && t >= options.window_lo && t < options.window_hi;
      fact.times.push_back(t);
    }
    if (!in_window) continue;
    if (!head_data_bound) {
      return InternalError("unbound head data variable");
    }
    for (const NormalizedDataArg& arg : clause.head_data) {
      fact.data.push_back(arg.is_constant() ? arg.constant
                                            : bd[arg.variable]);
    }
    const int64_t fact_bytes =
        static_cast<int64_t>(fact.times.size() + fact.data.size()) * 8 + 48;
    ++tuples_out;
    if (head_facts.Insert(std::move(fact))) {
      *grew = true;
      ++result->facts_derived;
      if (exec != nullptr) {
        exec->ChargeTuples(1);
        exec->ChargeBytes(fact_bytes);
      }
      if (result->facts_derived > options.max_facts) {
        return ResourceExhaustedError("ground evaluation exceeded max_facts");
      }
    }
  }
  LRPDB_COUNTER_ADD("eval.batch.tuples_out", tuples_out);
  return OkStatus();
}

}  // namespace

[[nodiscard]] StatusOr<GroundEvaluationResult> EvaluateGround(
    const Program& program, const Database& db,
    const GroundEvaluationOptions& options) {
  LRPDB_FAILPOINT("ground.evaluate");
  ExecContext* exec = options.exec;
  ExecContext::ScopedCurrent scoped_exec(exec);
  LRPDB_ASSIGN_OR_RETURN(NormalizedProgram normalized, Normalize(program));
  // Compile every clause once up front (hoisted join descriptors, head
  // derivations, incremental bound checks); the rounds below only execute.
  std::vector<GroundClausePlan> plans;
  plans.reserve(normalized.clauses.size());
  for (const NormalizedClause& clause : normalized.clauses) {
    plans.push_back(CompileGroundClausePlan(clause));
  }
  using StrataMap = std::map<SymbolId, int>;
  LRPDB_ASSIGN_OR_RETURN(StrataMap strata, program.Stratify());
  int max_stratum = 0;
  for (const auto& [unused, s] : strata) max_stratum = std::max(max_stratum, s);
  GroundEvaluationResult result;

  // Materialize EDB ground facts inside the window. EDB and IDB share the
  // GroundFactStore container so joins iterate both uniformly.
  std::map<std::string, GroundFactStore> edb;
  for (const NormalizedClause& clause : normalized.clauses) {
    for (const NormalizedBodyAtom& atom : clause.body) {
      if (atom.is_intensional) continue;
      const std::string& name = program.predicates().NameOf(atom.predicate);
      if (edb.count(name) > 0) continue;
      GroundFactStore& store = edb[name];
      LRPDB_ASSIGN_OR_RETURN(const GeneralizedRelation* relation,
                             db.Relation(name));
      for (GroundTuple& fact :
           relation->EnumerateGround(options.window_lo, options.window_hi)) {
        store.Insert(std::move(fact));
      }
    }
  }
  for (SymbolId predicate : program.idb_predicates()) {
    result.idb.emplace(program.predicates().NameOf(predicate),
                       GroundFactStore());
  }

  auto facts_of = [&](const NormalizedBodyAtom& atom)
      -> const GroundFactStore* {
    const std::string& name = program.predicates().NameOf(atom.predicate);
    return atom.is_intensional ? &result.idb.at(name) : &edb.at(name);
  };

  // Per-clause store pointers, resolved once: both maps are node-based so
  // the pointers stay valid across rounds, and the per-round loop below
  // avoids a name lookup per (clause, pivot, round).
  std::vector<std::vector<const GroundFactStore*>> clause_facts(
      normalized.clauses.size());
  std::vector<GroundFactStore*> clause_head(normalized.clauses.size(),
                                            nullptr);
  for (size_t ci = 0; ci < normalized.clauses.size(); ++ci) {
    const NormalizedClause& clause = normalized.clauses[ci];
    if (clause.always_false) continue;
    clause_facts[ci].resize(clause.body.size());
    for (size_t a = 0; a < clause.body.size(); ++a) {
      clause_facts[ci][a] = facts_of(clause.body[a]);
    }
    clause_head[ci] = &result.idb.at(
        program.predicates().NameOf(clause.head_predicate));
  }

  // Stratum by stratum (negated atoms read the finished lower strata);
  // semi-naive ground evaluation within each stratum, driven by the
  // stores' delta generations (facts inserted in the previous round).
  for (int stratum = 0; stratum <= max_stratum; ++stratum) {
  for (int round = 1;; ++round) {
    if (exec != nullptr) {
      LRPDB_RETURN_IF_ERROR(exec->CheckNow());
      if (result.iterations + 1 > exec->max_rounds()) {
        return exec->Trip(StatusCode::kResourceExhausted,
                          "ExecContext max_rounds (" +
                              std::to_string(exec->max_rounds()) +
                              ") reached in ground evaluation");
      }
    }
    bool grew = false;
    for (size_t ci = 0; ci < normalized.clauses.size(); ++ci) {
      const NormalizedClause& clause = normalized.clauses[ci];
      if (clause.always_false) continue;
      if (strata.at(clause.head_predicate) != stratum) continue;
      int intensional = 0;
      for (const NormalizedBodyAtom& atom : clause.body) {
        if (atom.is_intensional && !atom.negated &&
            strata.at(atom.predicate) == stratum) {
          ++intensional;
        }
      }
      if (round > 1 && intensional == 0) continue;
      GroundFactStore& head_facts = *clause_head[ci];

      int num_pivots = (round == 1 || intensional == 0)
                           ? 1
                           : static_cast<int>(clause.body.size());
      for (int pivot = 0; pivot < num_pivots; ++pivot) {
        if (round > 1 && (!clause.body[pivot].is_intensional ||
                          clause.body[pivot].negated ||
                          strata.at(clause.body[pivot].predicate) !=
                              stratum)) {
          continue;
        }
        if (round > 1 && clause_facts[ci][pivot]->delta_size() == 0) {
          continue;
        }
        LRPDB_RETURN_IF_ERROR(ApplyGroundPlan(
            clause, plans[ci], clause_facts[ci], head_facts, pivot,
            /*use_delta=*/round > 1, options, exec, &grew, &result));
      }
    }
    result.iterations += 1;
    if (exec != nullptr) exec->ReportCompletedRound(result.iterations);
    // This round's inserts become the next round's delta generations.
    for (auto& [unused, store] : result.idb) store.AdvanceGeneration();
    if (!grew) break;  // Stratum fixpoint.
  }
  }
  return result;
}

}  // namespace lrpdb
