#include "src/datalog1s/datalog1s.h"

#include <algorithm>
#include <optional>
#include <set>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/core/ground_evaluator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace lrpdb {
namespace {

// Membership oracle over the candidate model plus the extensional database,
// valid for arbitrary time points (both are periodic representations).
class Oracle {
 public:
  Oracle(const Datalog1SResult& candidate, const Program& program,
         const Database& db)
      : candidate_(candidate), program_(program), db_(db) {}

  bool Holds(SymbolId predicate, const std::vector<DataValue>& data,
             int64_t time) const {
    if (time < 0) return false;
    const std::string& name = program_.predicates().NameOf(predicate);
    if (program_.IsIntensional(predicate)) {
      return candidate_.Holds(name, data, time);
    }
    auto relation = db_.Relation(name);
    if (!relation.ok()) return false;
    return (*relation)->ContainsGround({time}, data);
  }

  // All data vectors d with predicate(time, d) true.
  std::vector<std::vector<DataValue>> DataVectorsAt(SymbolId predicate,
                                                    int64_t time) const {
    std::vector<std::vector<DataValue>> out;
    if (time < 0) return out;
    const std::string& name = program_.predicates().NameOf(predicate);
    if (program_.IsIntensional(predicate)) {
      auto it = candidate_.model.find(name);
      if (it == candidate_.model.end()) return out;
      for (const auto& [data, times] : it->second) {
        if (times.Contains(time)) out.push_back(data);
      }
      return out;
    }
    auto relation = db_.Relation(name);
    if (!relation.ok()) return out;
    std::set<std::vector<DataValue>> seen;
    for (EntryId id : (*relation)->live_ids()) {
      const TupleView tuple = (*relation)->tuple(id);
      if (tuple.lrp(0).Contains(time) &&
          tuple.constraint().ContainsPoint({time}) &&
          seen.insert(tuple.data().ToVector()).second) {
        out.push_back(tuple.data().ToVector());
      }
    }
    return out;
  }

 private:
  const Datalog1SResult& candidate_;
  const Program& program_;
  const Database& db_;
};

// Extracts (variable-or-none, offset) from a Datalog1S temporal term.
struct TimeTerm {
  bool has_variable = false;
  int64_t offset = 0;
  int64_t ValueAt(int64_t t) const { return has_variable ? t + offset : offset; }
};

TimeTerm TimeTermOf(const TemporalTerm& term) {
  return {.has_variable = !term.is_constant(), .offset = term.offset};
}

// A partial assignment of data variables while checking one rule
// instantiation.
using DataBinding = std::map<SymbolId, DataValue>;

bool UnifyData(const std::vector<DataTerm>& args,
               const std::vector<DataValue>& values, DataBinding* binding) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].is_constant()) {
      if (args[i].constant != values[i]) return false;
    } else {
      auto [it, inserted] = binding->emplace(args[i].variable, values[i]);
      if (!inserted && it->second != values[i]) return false;
    }
  }
  return true;
}

// Checks closure of `candidate` under `clause` for the time instant t of the
// clause's temporal variable (or the single vacuous instant for variable-free
// clauses). Returns false (and fills *counterexample) when the rule fires
// but the head is missing.
bool ClosedAt(const Oracle& oracle, const Program& program,
              const Clause& clause, int64_t t,
              const Datalog1SResult& candidate) {
  // Join the body atoms' data vectors.
  std::vector<DataBinding> frontier{{}};
  for (const BodyAtom& atom : clause.body) {
    const auto& pred = std::get<PredicateAtom>(atom);
    TimeTerm tt = TimeTermOf(pred.temporal_args[0]);
    int64_t at = tt.ValueAt(t);
    std::vector<DataBinding> next;
    for (const DataBinding& binding : frontier) {
      for (const std::vector<DataValue>& data :
           oracle.DataVectorsAt(pred.predicate, at)) {
        DataBinding extended = binding;
        if (UnifyData(pred.data_args, data, &extended)) {
          next.push_back(std::move(extended));
        }
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) return true;  // Body unsatisfied: closed.
  }
  TimeTerm head_time = TimeTermOf(clause.head.temporal_args[0]);
  int64_t at = head_time.ValueAt(t);
  for (const DataBinding& binding : frontier) {
    std::vector<DataValue> head_data;
    head_data.reserve(clause.head.data_args.size());
    for (const DataTerm& d : clause.head.data_args) {
      if (d.is_constant()) {
        head_data.push_back(d.constant);
      } else {
        auto it = binding.find(d.variable);
        LRPDB_CHECK(it != binding.end());
        head_data.push_back(it->second);
      }
    }
    const std::string& name =
        program.predicates().NameOf(clause.head.predicate);
    if (!candidate.Holds(name, head_data, at)) return false;
  }
  return true;
}

}  // namespace

bool Datalog1SResult::Holds(const std::string& predicate,
                            const std::vector<DataValue>& data,
                            int64_t time) const {
  auto it = model.find(predicate);
  if (it == model.end()) return false;
  auto dit = it->second.find(data);
  if (dit == it->second.end()) return false;
  return dit->second.Contains(time);
}

[[nodiscard]] Status ValidateDatalog1S(const Program& program) {
  LRPDB_FAILPOINT("datalog1s.validate");
  LRPDB_RETURN_IF_ERROR(program.Validate());
  for (const auto& [predicate, schema] : program.declarations()) {
    if (schema.temporal_arity != 1) {
      return InvalidArgumentError(
          "Datalog1S predicate '" + program.predicates().NameOf(predicate) +
          "' must have exactly one temporal parameter");
    }
  }
  for (const Clause& clause : program.clauses()) {
    std::optional<SymbolId> temporal_var;
    auto check_term = [&](const TemporalTerm& term) -> Status {
      if (term.is_constant()) {
        if (term.offset < 0) {
          return InvalidArgumentError(
              "Datalog1S temporal constants are naturals");
        }
        return OkStatus();
      }
      if (term.offset < 0) {
        return InvalidArgumentError(
            "Datalog1S temporal terms use only the successor function "
            "(non-negative offsets)");
      }
      if (temporal_var.has_value() && *temporal_var != term.variable) {
        return InvalidArgumentError(
            "Datalog1S clauses use a single temporal variable");
      }
      temporal_var = term.variable;
      return OkStatus();
    };
    LRPDB_CHECK_EQ(clause.head.temporal_args.size(), 1u);
    LRPDB_RETURN_IF_ERROR(check_term(clause.head.temporal_args[0]));
    for (const BodyAtom& atom : clause.body) {
      if (std::holds_alternative<ConstraintAtom>(atom)) {
        return InvalidArgumentError(
            "the [CI88] language has no constraint atoms");
      }
      LRPDB_RETURN_IF_ERROR(
          check_term(std::get<PredicateAtom>(atom).temporal_args[0]));
    }
  }
  return program.Validate();
}

namespace {

// Dense window model: per (predicate, data) key a bitset over [0, H).
struct WindowModel {
  std::vector<std::pair<std::string, std::vector<DataValue>>> keys;
  std::vector<std::vector<bool>> membership;  // [key][t]
  int64_t horizon = 0;

  bool StatesEqual(int64_t t1, int64_t t2) const {
    for (const auto& bits : membership) {
      if (bits[t1] != bits[t2]) return false;
    }
    return true;
  }
};

[[nodiscard]] StatusOr<WindowModel> EvaluateWindow(const Program& program,
                                     const Database& db, int64_t horizon,
                                     int64_t max_facts) {
  LRPDB_FAILPOINT("datalog1s.window");
  LRPDB_COUNTER_INC("datalog1s.window_evals");
  LRPDB_TRACE_SPAN(span, "datalog1s.window");
  span.AddArg("horizon", horizon);
  LRPDB_SCOPED_TIMER_US("datalog1s.window.duration_us");
  GroundEvaluationOptions options;
  options.window_lo = 0;
  options.window_hi = horizon;
  options.max_facts = max_facts;
  options.exec = ExecContext::Current();
  LRPDB_ASSIGN_OR_RETURN(GroundEvaluationResult ground,
                         EvaluateGround(program, db, options));
  WindowModel window;
  window.horizon = horizon;
  for (const auto& [name, facts] : ground.idb) {
    std::map<std::vector<DataValue>, std::vector<bool>> by_data;
    for (const GroundTuple& fact : facts) {
      auto [it, unused] =
          by_data.emplace(fact.data, std::vector<bool>(horizon, false));
      it->second[fact.times[0]] = true;
    }
    for (auto& [data, bits] : by_data) {
      window.keys.emplace_back(name, data);
      window.membership.push_back(std::move(bits));
    }
  }
  return window;
}

// Least (offset, period) making the window model periodic on its suffix, or
// nullopt if none fits in the window.
std::optional<std::pair<int64_t, int64_t>> DetectPeriodicity(
    const WindowModel& window) {
  int64_t h = window.horizon;
  int64_t suffix = h / 2;
  for (int64_t period = 1; period <= h / 4; ++period) {
    bool periodic = true;
    for (int64_t t = suffix; t + period < h && periodic; ++t) {
      periodic = window.StatesEqual(t, t + period);
    }
    if (!periodic) continue;
    int64_t offset = suffix;
    while (offset > 0 && window.StatesEqual(offset - 1, offset - 1 + period)) {
      --offset;
    }
    return std::make_pair(offset, period);
  }
  return std::nullopt;
}

Datalog1SResult BuildCandidate(const WindowModel& window, int64_t offset,
                               int64_t period) {
  Datalog1SResult result;
  result.horizon = window.horizon;
  for (size_t k = 0; k < window.keys.size(); ++k) {
    const auto& bits = window.membership[k];
    std::vector<bool> prefix(bits.begin(), bits.begin() + offset);
    std::vector<bool> tail(bits.begin() + offset,
                           bits.begin() + offset + period);
    auto set = EventuallyPeriodicSet::Create(std::move(prefix),
                                             std::move(tail));
    LRPDB_CHECK(set.ok());
    result.model[window.keys[k].first][window.keys[k].second] =
        std::move(set).value();
  }
  return result;
}

// Exact closure check of the candidate under every clause (certification
// step (b); step (a) -- facts -- is the empty-body special case). Polls
// ExecContext::Current() once per checked time instant, so deadlines and
// cancellation cut into long certification sweeps, not just window
// evaluation.
[[nodiscard]] StatusOr<bool> IsClosed(const Program& program,
                                      const Database& db,
                                      const Datalog1SResult& candidate,
                                      int64_t offset, int64_t period) {
  LRPDB_FAILPOINT("datalog1s.closure");
  LRPDB_COUNTER_INC("datalog1s.closure_checks");
  LRPDB_TRACE_SPAN(span, "datalog1s.closure_check");
  span.AddArg("offset", offset);
  span.AddArg("period", period);
  LRPDB_SCOPED_TIMER_US("datalog1s.closure_check.duration_us");
  Oracle oracle(candidate, program, db);
  int64_t max_shift = 0;
  for (const Clause& clause : program.clauses()) {
    max_shift = std::max(max_shift, clause.head.temporal_args[0].offset);
    for (const BodyAtom& atom : clause.body) {
      max_shift = std::max(
          max_shift, std::get<PredicateAtom>(atom).temporal_args[0].offset);
    }
  }
  // The database relations' own periodicity must be covered too: beyond
  // their offsets they repeat with their lrp periods; fold them into the
  // check period. (EDB tuples have DBM windows; a bound B below covers the
  // aperiodic part.)
  int64_t check_period = period;
  int64_t edb_offset = 0;
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    if ((*relation)->schema().temporal_arity != 1) continue;
    for (EntryId id : (*relation)->live_ids()) {
      const TupleView tuple = (*relation)->tuple(id);
      check_period = Lcm(check_period, tuple.lrp(0).period());
      // Absolute DBM bounds push the aperiodic region outward.
      Bound upper = tuple.constraint().bound(1, 0);
      Bound lower = tuple.constraint().bound(0, 1);
      if (!upper.is_infinite()) {
        edb_offset = std::max(edb_offset, upper.value() + 1);
      }
      if (!lower.is_infinite()) {
        edb_offset = std::max(edb_offset, -lower.value() + 1);
      }
    }
  }
  int64_t t_max = std::max(offset, edb_offset) + 2 * check_period + max_shift;
  ExecContext* exec = ExecContext::Current();
  for (const Clause& clause : program.clauses()) {
    bool has_variable = !clause.head.temporal_args[0].is_constant();
    for (const BodyAtom& atom : clause.body) {
      has_variable = has_variable ||
                     !std::get<PredicateAtom>(atom).temporal_args[0]
                          .is_constant();
    }
    int64_t instants = has_variable ? t_max : 1;
    for (int64_t t = 0; t < instants; ++t) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      if (!ClosedAt(oracle, program, clause, t, candidate)) return false;
    }
  }
  return true;
}

// Does the candidate reproduce the window model exactly on [0, H)?
bool MatchesWindow(const Datalog1SResult& candidate,
                   const WindowModel& window) {
  // Every window key must match, and the candidate must not contain keys
  // absent from the window (it is built from a window, so keys only shrink;
  // compare both directions on membership).
  for (size_t k = 0; k < window.keys.size(); ++k) {
    const auto& [name, data] = window.keys[k];
    for (int64_t t = 0; t < window.horizon; ++t) {
      if (candidate.Holds(name, data, t) != window.membership[k][t]) {
        return false;
      }
    }
  }
  // Keys in the candidate but not in the window would mean facts the ground
  // model lacks.
  for (const auto& [name, by_data] : candidate.model) {
    for (const auto& [data, times] : by_data) {
      bool known = false;
      for (const auto& key : window.keys) {
        if (key.first == name && key.second == data) {
          known = true;
          break;
        }
      }
      if (!known && !times.IsEmpty()) return false;
    }
  }
  return true;
}

}  // namespace

[[nodiscard]] StatusOr<Datalog1SResult> EvaluateDatalog1S(const Program& program,
                                            const Database& db,
                                            const Datalog1SOptions& options) {
  LRPDB_RETURN_IF_ERROR(ValidateDatalog1S(program));
  LRPDB_FAILPOINT("datalog1s.evaluate");
  LRPDB_TRACE_SPAN(eval_span, "datalog1s.evaluate");
  ExecContext* exec = options.exec;
  ExecContext::ScopedCurrent scoped_exec(exec);
  int64_t horizon = options.initial_horizon;
  LRPDB_ASSIGN_OR_RETURN(
      WindowModel window,
      EvaluateWindow(program, db, horizon, options.max_facts));
  if (exec != nullptr) exec->ReportHorizonLowerBound(horizon);
  int64_t doublings = 0;
  while (true) {
    if (exec != nullptr) {
      // One governance check per doubling round: cheap against the window
      // evaluations, and the per-binding polls inside EvaluateGround cover
      // the expensive inner work.
      LRPDB_RETURN_IF_ERROR(exec->CheckNow());
      if (doublings >= exec->max_rounds()) {
        return exec->Trip(StatusCode::kResourceExhausted,
                          "ExecContext max_rounds (" +
                              std::to_string(exec->max_rounds()) +
                              ") reached in Datalog1S horizon doubling");
      }
    }
    if (horizon * 2 > options.max_horizon) {
      return ResourceExhaustedError(
          "Datalog1S evaluation exceeded max_horizon without certifying a "
          "periodic model");
    }
    LRPDB_ASSIGN_OR_RETURN(
        WindowModel confirm,
        EvaluateWindow(program, db, horizon * 2, options.max_facts));
    if (exec != nullptr) exec->ReportHorizonLowerBound(horizon * 2);
    std::optional<std::pair<int64_t, int64_t>> detected =
        DetectPeriodicity(window);
    if (detected.has_value()) {
      LRPDB_COUNTER_INC("datalog1s.periods_detected");
      auto [offset, period] = *detected;
      Datalog1SResult candidate = BuildCandidate(window, offset, period);
      LRPDB_ASSIGN_OR_RETURN(
          bool closed,
          IsClosed(program, db, candidate, offset, period));
      if (closed && MatchesWindow(candidate, confirm)) {
        candidate.horizon = horizon;
        LRPDB_GAUGE_SET("datalog1s.certified_horizon", horizon);
        eval_span.AddArg("horizon", horizon);
        eval_span.AddArg("period", period);
        return candidate;
      }
    }
    window = std::move(confirm);
    horizon *= 2;
    ++doublings;
    LRPDB_COUNTER_INC("datalog1s.horizon_doublings");
  }
}

}  // namespace lrpdb
