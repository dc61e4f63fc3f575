#include "src/core/evaluator.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "src/common/failpoint.h"
#include "src/core/clause_plan.h"
#include "src/core/provenance.h"
#include "src/gdb/algebra.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace lrpdb {
namespace {

// The profile's *counts* are plain integer adds and always collected; the
// *timings* cost a clock read per round and per clause application, so they
// go through the obs layer's monotonic clock: under LRPDB_NO_METRICS it
// compiles to zeros and the uninstrumented build performs no clock reads in
// the evaluation loop. (obs is the only library allowed to read the clock;
// ci/lint/run_lint.py enforces this.)
using SteadyTime = obs::MonotonicTime;
using obs::UsSince;

SteadyTime Now() { return obs::MonotonicNow(); }

// "head :- body1, !body2" sketch of a normalized clause, for EXPLAIN dumps.
std::string RenderClause(const Program& program,
                         const NormalizedClause& clause) {
  std::string s = program.predicates().NameOf(clause.head_predicate);
  if (clause.body.empty()) return s + ".";
  s += " :- ";
  for (size_t i = 0; i < clause.body.size(); ++i) {
    if (i > 0) s += ", ";
    if (clause.body[i].negated) s += "!";
    s += program.predicates().NameOf(clause.body[i].predicate);
  }
  return s;
}

// The data constants written in the program.
std::set<DataValue> ProgramConstants(const Program& program) {
  std::set<DataValue> constants;
  auto collect = [&constants](const PredicateAtom& atom) {
    for (const DataTerm& d : atom.data_args) {
      if (d.is_constant()) constants.insert(d.constant);
    }
  };
  for (const Clause& clause : program.clauses()) {
    collect(clause.head);
    for (const BodyAtom& atom : clause.body) {
      if (const auto* pred = std::get_if<PredicateAtom>(&atom)) {
        collect(*pred);
      }
    }
  }
  return constants;
}

// Shared machinery between Evaluate and QueryAtom: resolves the relation a
// body atom reads from, including the complement relations backing negated
// body literals (stratified negation: by the time a stratum reads !q, q is
// final, so its complement can be materialized once).
class RelationResolver {
 public:
  RelationResolver(const Program& program, const Database& db,
                   const std::map<std::string, GeneralizedRelation>* idb)
      : program_(program), db_(db), idb_(idb) {}

  [[nodiscard]] StatusOr<const GeneralizedRelation*> Resolve(SymbolId predicate,
                                               bool is_intensional) const {
    LRPDB_FAILPOINT("evaluator.resolve");
    const std::string& name = program_.predicates().NameOf(predicate);
    if (is_intensional) {
      auto it = idb_->find(name);
      if (it == idb_->end()) {
        return NotFoundError("no intensional relation '" + name + "'");
      }
      return &it->second;
    }
    return db_.Relation(name);
  }

  [[nodiscard]] StatusOr<const GeneralizedRelation*> ResolveNegated(
      SymbolId predicate, bool is_intensional) {
    auto it = complements_.find(predicate);
    if (it != complements_.end()) return &it->second;
    LRPDB_ASSIGN_OR_RETURN(const GeneralizedRelation* relation,
                           Resolve(predicate, is_intensional));
    // The active data domain: every constant stored in the database plus
    // every constant written in the program. Only complements read it, so
    // it is collected at the first one; the database does not change
    // during an evaluation.
    if (!active_domain_.has_value()) {
      active_domain_ = ActiveDomain(db_, ProgramConstants(program_));
    }
    LRPDB_ASSIGN_OR_RETURN(
        std::vector<std::vector<DataValue>> universe,
        DataUniverse(*active_domain_, relation->schema().data_arity));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation complement,
                           Complement(*relation, universe));
    auto [inserted, unused] =
        complements_.emplace(predicate, std::move(complement));
    return &inserted->second;
  }

 private:
  const Program& program_;
  const Database& db_;
  const std::map<std::string, GeneralizedRelation>* idb_;
  std::optional<std::vector<DataValue>> active_domain_;
  std::map<SymbolId, GeneralizedRelation> complements_;
};

// Appends printf-style output to `out`, however long it formats.
__attribute__((format(printf, 2, 3))) void Appendf(std::string* out,
                                                   const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  if (size > 0) {
    const size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(size) + 1);
    std::vsnprintf(out->data() + old_size, static_cast<size_t>(size) + 1,
                   format, args);
    out->resize(old_size + static_cast<size_t>(size));
  }
  va_end(args);
}

// Publishes one finished round to the metrics registry: its eval.* round
// counters and every store.* insert/probe counter. This is the only path
// from StoreStats to the registry, so a store.* delta always equals the
// StoreTotals() of the rounds published meanwhile.
void PublishRound([[maybe_unused]] const RoundStats& round) {
  LRPDB_COUNTER_INC("eval.rounds");
  LRPDB_COUNTER_ADD("eval.round.delta_tuples", round.delta_tuples);
  LRPDB_COUNTER_ADD("eval.candidates", round.candidates);
  LRPDB_COUNTER_ADD("eval.inserted", round.inserted);
  LRPDB_COUNTER_ADD("eval.new_free_extensions", round.new_free_extensions);
  LRPDB_HISTOGRAM_RECORD("eval.round.duration_us", round.duration_us);
  const StoreStats& store = round.store;
  LRPDB_COUNTER_ADD("store.signature_probes", store.signature_probes);
  LRPDB_COUNTER_ADD("store.subsumption_checks", store.subsumption_checks);
  LRPDB_COUNTER_ADD("store.subsumption_candidates",
                    store.subsumption_candidates);
  LRPDB_COUNTER_ADD("store.inserts", store.inserts);
  LRPDB_COUNTER_ADD("store.subsumed", store.subsumed);
  LRPDB_COUNTER_ADD("store.empty_dropped", store.empty_dropped);
  LRPDB_COUNTER_ADD("store.index_probes", store.index_probes);
  LRPDB_COUNTER_ADD("store.tuples_scanned", store.tuples_scanned);
  LRPDB_COUNTER_ADD("store.tuples_pruned", store.tuples_pruned);
}

}  // namespace

const GeneralizedRelation& EvaluationResult::Relation(
    const std::string& name) const {
  auto it = idb.find(name);
  LRPDB_CHECK(it != idb.end()) << "no intensional relation '" << name << "'";
  return it->second;
}

StoreStats EvaluationResult::StoreTotals() const {
  StoreStats totals;
  for (const RoundStats& round : rounds) totals.Accumulate(round.store);
  return totals;
}

int64_t EvaluationResult::TuplesStored() const {
  int64_t total = 0;
  for (const auto& [unused, relation] : idb) {
    total += static_cast<int64_t>(relation.live_size());
  }
  return total;
}

int64_t EvalProfile::TotalDerivations() const {
  int64_t total = 0;
  for (const RuleProfile& rule : rules) total += rule.derivations;
  return total;
}

int64_t EvalProfile::TotalInserted() const {
  int64_t total = 0;
  for (const RuleProfile& rule : rules) total += rule.inserted;
  return total;
}

std::string EvaluationResult::Explain(bool include_timings) const {
  // Everything below except the *_us fields is a pure function of the
  // computed model: Explain(false) is what the determinism tests compare
  // across runs, so timing-free lines must stay free of any run-dependent
  // value (wall clocks, pointers).
  std::string out;
  const std::string outcome =
      reached_fixpoint ? "fixpoint reached" : "gave up: " + gave_up_reason;
  Appendf(&out, "EXPLAIN: %d rounds, %s, %lld derivations, %lld kept",
          iterations, outcome.c_str(),
          static_cast<long long>(profile.TotalDerivations()),
          static_cast<long long>(profile.TotalInserted()));
  if (include_timings) {
    Appendf(&out, " (total %lld us, normalize %lld us)",
            static_cast<long long>(profile.total_us),
            static_cast<long long>(profile.normalize_us));
  }
  out += "\n";
  for (const RuleProfile& rule : profile.rules) {
    Appendf(&out,
            "  rule %-3d %-40s apps=%-5lld derived=%-6lld kept=%-6lld "
            "subsumed=%-6lld new_fe=%-5lld",
            rule.clause_index, rule.rule.c_str(),
            static_cast<long long>(rule.applications),
            static_cast<long long>(rule.derivations),
            static_cast<long long>(rule.inserted),
            static_cast<long long>(rule.subsumed),
            static_cast<long long>(rule.new_free_extensions));
    if (include_timings) {
      Appendf(&out, " apply_us=%lld", static_cast<long long>(rule.apply_us));
    }
    out += "\n";
  }
  out += include_timings
             ? "  round  stratum  delta  cand  ins  new_fe  apply_us  "
               "insert_us\n"
             : "  round  stratum  delta  cand  ins  new_fe\n";
  for (const RoundStats& round : rounds) {
    Appendf(&out, "  %-6d %-8d %-6lld %-5d %-4d %-7d", round.round,
            round.stratum, static_cast<long long>(round.delta_tuples),
            round.candidates, round.inserted, round.new_free_extensions);
    if (include_timings) {
      Appendf(&out, " %-9lld %lld", static_cast<long long>(round.apply_us),
              static_cast<long long>(round.insert_us));
    }
    out += "\n";
  }
  return out;
}

namespace {

// Shared body of Evaluate and ResumeEvaluate. `resume`, when non-null,
// seeds the IDB from a prior run and replaces the first round's task set
// with the incremental one (rederive heads in full, everything else
// pivoted on non-empty deltas); see ResumeSeed in evaluator.h.
[[nodiscard]] StatusOr<EvaluationResult> EvaluateInternal(
    const Program& program, const Database& db,
    const EvaluationOptions& options, ResumeSeed* resume) {
  const SteadyTime eval_start = Now();
  LRPDB_TRACE_SPAN(eval_span, "eval.run");
  LRPDB_FAILPOINT("evaluator.evaluate");
  ExecContext* exec = options.exec;
  // Every layer below polls and charges the context through
  // ExecContext::Current().
  ExecContext::ScopedCurrent scoped_exec(exec);
  EvaluationResult result;
  const SteadyTime normalize_start = Now();
  LRPDB_ASSIGN_OR_RETURN(NormalizedProgram normalized, Normalize(program));
  result.profile.normalize_us = UsSince(normalize_start);
  result.profile.rules.resize(normalized.clauses.size());
  for (size_t ci = 0; ci < normalized.clauses.size(); ++ci) {
    RuleProfile& rule = result.profile.rules[ci];
    rule.clause_index = static_cast<int>(ci);
    rule.head_predicate =
        program.predicates().NameOf(normalized.clauses[ci].head_predicate);
    rule.rule = RenderClause(program, normalized.clauses[ci]);
  }
  // Stamps the whole-evaluation profile fields; call before every return.
  auto finalize = [&result, eval_start] {
    result.profile.total_us = UsSince(eval_start);
  };

  // Resumption is restricted to the semi-naive, negation-free fragment:
  // complements are materialized per evaluation and would go stale across
  // incremental updates, and the delta-pivot resume round assumes a single
  // stratum. IncrementalEvaluator falls back to a full Evaluate otherwise.
  if (resume != nullptr) {
    if (!options.semi_naive) {
      return InvalidArgumentError(
          "ResumeEvaluate requires semi-naive evaluation");
    }
    for (const NormalizedClause& clause : normalized.clauses) {
      for (const NormalizedBodyAtom& atom : clause.body) {
        if (atom.negated) {
          return InvalidArgumentError(
              "ResumeEvaluate does not support negation");
        }
      }
    }
  }

  // Initialize the IDB relations for every intensional predicate: empty,
  // or adopted from the resume seed's prior run.
  for (SymbolId predicate : program.idb_predicates()) {
    const std::string& name = program.predicates().NameOf(predicate);
    std::optional<RelationSchema> schema = program.SchemaOf(predicate);
    if (!schema.has_value()) {
      return NotFoundError("intensional predicate '" + name +
                           "' has no declaration");
    }
    if (db.IsDeclared(name)) {
      return InvalidArgumentError(
          "predicate '" + name +
          "' is defined by clauses but also exists extensionally");
    }
    if (resume != nullptr) {
      auto it = resume->idb.find(name);
      if (it != resume->idb.end()) {
        result.idb.emplace(name, std::move(it->second));
        continue;
      }
    }
    result.idb.emplace(name, GeneralizedRelation(*schema));
  }
  // Check extensional predicates exist.
  for (const NormalizedClause& clause : normalized.clauses) {
    for (const NormalizedBodyAtom& atom : clause.body) {
      if (atom.is_intensional) continue;
      const std::string& name = program.predicates().NameOf(atom.predicate);
      if (!db.IsDeclared(name)) {
        return NotFoundError("extensional predicate '" + name +
                             "' not present in the database");
      }
    }
  }

  // Stratify (programs without negation collapse to a single stratum).
  using StrataMap = std::map<SymbolId, int>;
  LRPDB_ASSIGN_OR_RETURN(StrataMap strata, program.Stratify());
  int max_stratum = 0;
  for (const auto& [unused, s] : strata) max_stratum = std::max(max_stratum, s);

  RelationResolver resolver(program, db, &result.idb);

  // Each clause's plan is compiled once, before the first round.
  std::vector<ClausePlan> plans;
  plans.reserve(normalized.clauses.size());
  for (const NormalizedClause& clause : normalized.clauses) {
    plans.push_back(CompileClausePlan(clause));
  }

  // Why-provenance capture, when the caller passed a log. Per-clause
  // relation ids (head + positive body atoms, body order) are interned
  // once; they pair with the per-candidate parent entry ids the kernels
  // capture.
  ProvenanceLog* prov = options.provenance;
  struct ClauseProv {
    ProvRelationId head = 0;
    std::vector<ProvRelationId> parents;
  };
  std::vector<ClauseProv> clause_prov;
  if (prov != nullptr) {
    clause_prov.resize(normalized.clauses.size());
    for (size_t ci = 0; ci < normalized.clauses.size(); ++ci) {
      const NormalizedClause& clause = normalized.clauses[ci];
      clause_prov[ci].head = prov->InternRelation(
          program.predicates().NameOf(clause.head_predicate));
      for (const NormalizedBodyAtom& atom : clause.body) {
        if (!atom.negated) {
          clause_prov[ci].parents.push_back(prov->InternRelation(
              program.predicates().NameOf(atom.predicate)));
        }
      }
    }
  }

  int last_new_fe_round = 0;
  int total_rounds = 0;
  // Graceful degradation: `trip` is this context's sticky governance status
  // (deadline / budget / cancellation). The result keeps the sound model of
  // the rounds completed so far, annotated with the trip snapshot; callers
  // return `result` immediately after. The in-band shape matches the
  // round-cap and fes_patience give-ups.
  auto degrade = [&](const Status& trip) {
    result.free_extension_safe_at = last_new_fe_round;
    result.gave_up_reason = trip.ToString();
    result.partial = exec->partial();
    switch (trip.code()) {
      case StatusCode::kCancelled:
        LRPDB_COUNTER_INC("exec.cancelled");
        break;
      case StatusCode::kDeadlineExceeded:
        LRPDB_COUNTER_INC("exec.deadline_exceeded");
        break;
      default:
        LRPDB_COUNTER_INC("exec.resource_exhausted");
        break;
    }
    finalize();
  };
  for (int stratum = 0; stratum <= max_stratum; ++stratum) {
    const int stratum_start = total_rounds;
    for (int round = 1;; ++round) {
      // One round cap: the context's (a governance trip), or the default
      // in-band when no context is installed.
      if (exec == nullptr &&
          total_rounds + 1 > ExecContext::kDefaultMaxRounds) {
        result.gave_up_reason =
            "max_rounds (" + std::to_string(ExecContext::kDefaultMaxRounds) +
            ") reached";
        result.free_extension_safe_at = last_new_fe_round;
        finalize();
        return result;
      }
      if (exec != nullptr) {
        if (total_rounds + 1 > exec->max_rounds()) {
          degrade(exec->Trip(StatusCode::kResourceExhausted,
                             "ExecContext max_rounds (" +
                                 std::to_string(exec->max_rounds()) +
                                 ") reached"));
          return result;
        }
        Status round_check = exec->CheckNow();
        if (!round_check.ok()) {
          degrade(round_check);
          return result;
        }
      }
      ++total_rounds;
      // Collect candidates against the state at round start. The stores'
      // delta generations hold exactly the tuples inserted last round, so
      // semi-naive pivots read an index range instead of a copied relation.
      const SteadyTime round_start = Now();
      LRPDB_TRACE_SPAN(round_span, "eval.round");
      round_span.AddArg("round", total_rounds);
      round_span.AddArg("stratum", stratum);
      RoundStats stats;
      stats.round = total_rounds;
      stats.stratum = stratum;
      for (const auto& [unused, relation] : result.idb) {
        stats.delta_tuples +=
            static_cast<int64_t>(relation.delta_size());
      }
      // The round's candidates in clause order, then pivot order, as flat
      // rows in one round buffer (with their parent ids while capturing
      // provenance); each ApplyClauseBatch call appends in lexicographic
      // body-order entry-id order (clause_plan.h), which fixes the
      // insertion order below. The buffer is freed with the round, so its
      // capacity never sits on top of the next round's or the final
      // model's.
      CandidateRows candidates(/*capture=*/prov != nullptr);
      // The deriving clause of each run of consecutive candidates, one run
      // per application that emitted any: (clause index, candidates).
      std::vector<std::pair<int, size_t>> runs;
      // Applies clause `ci` over `sources`: one (clause, pivot) unit.
      auto apply = [&](size_t ci,
                       const std::vector<AtomSource>& sources) -> Status {
        LRPDB_RETURN_IF_ERROR(PollExec(exec));
        LRPDB_TRACE_SPAN(task_span, "eval.task");
        task_span.AddArg("clause", static_cast<int64_t>(ci));
        task_span.AddArg("round", total_rounds);
        const SteadyTime apply_start = Now();
        const size_t before = candidates.size;
        LRPDB_RETURN_IF_ERROR(ApplyClauseBatch(normalized.clauses[ci],
                                               plans[ci], sources,
                                               &stats.store, &candidates));
        const int64_t apply_us = UsSince(apply_start);
        const size_t emitted = candidates.size - before;
        if (emitted > 0) runs.emplace_back(static_cast<int>(ci), emitted);
        RuleProfile& rule_profile = result.profile.rules[ci];
        ++rule_profile.applications;
        rule_profile.derivations += static_cast<int64_t>(emitted);
        rule_profile.apply_us += apply_us;
        stats.apply_us += apply_us;
        return OkStatus();
      };
      for (size_t ci = 0; ci < normalized.clauses.size(); ++ci) {
        const NormalizedClause& clause = normalized.clauses[ci];
        if (strata.at(clause.head_predicate) != stratum) continue;
        // Intensional atoms of the *current* stratum drive semi-naive
        // deltas; lower-stratum relations are final and behave like EDB.
        int recursive = 0;
        for (const NormalizedBodyAtom& atom : clause.body) {
          if (atom.is_intensional && !atom.negated &&
              strata.at(atom.predicate) == stratum) {
            ++recursive;
          }
        }
        if (options.semi_naive && round > 1 && recursive == 0) continue;

        // Complements of negated relations materialize lazily here.
        std::vector<AtomSource> sources(clause.body.size());
        for (size_t a = 0; a < clause.body.size(); ++a) {
          const NormalizedBodyAtom& atom = clause.body[a];
          if (atom.negated) {
            StatusOr<const GeneralizedRelation*> negated =
                resolver.ResolveNegated(atom.predicate, atom.is_intensional);
            if (!negated.ok()) {
              if (!IsGovernanceTrip(exec, negated.status())) {
                return negated.status();
              }
              degrade(negated.status());
              return result;
            }
            sources[a].relation = *negated;
          } else {
            LRPDB_ASSIGN_OR_RETURN(
                sources[a].relation,
                resolver.Resolve(atom.predicate, atom.is_intensional));
          }
          sources[a].hi = sources[a].relation->size();
        }
        // Pivots `sources` to body atom `pivot`'s delta generation.
        auto pivoted = [&sources](size_t pivot) {
          std::vector<AtomSource> pivot_sources = sources;
          const GeneralizedRelation& relation = *sources[pivot].relation;
          pivot_sources[pivot].lo = relation.delta_lo();
          pivot_sources[pivot].hi = relation.delta_hi();
          return pivot_sources;
        };
        // The clause's (clause, pivot) units, applied in this order.
        std::vector<std::vector<AtomSource>> units;
        if (resume != nullptr && round == 1) {
          // Incremental resume round: a clause re-derives in full when a
          // retraction over-deleted from its head relation; otherwise it
          // runs once per positive body atom with a pending delta (EDB
          // deltas seeded by AddFacts included), pivoted to that delta.
          // Clauses with neither can derive nothing new and are skipped —
          // that skip is the incremental win.
          const std::string& head_name =
              program.predicates().NameOf(clause.head_predicate);
          if (resume->rederive_heads.count(head_name) > 0) {
            units.push_back(sources);
          } else {
            for (size_t pivot = 0; pivot < clause.body.size(); ++pivot) {
              if (clause.body[pivot].negated) continue;
              if (sources[pivot].relation->delta_size() == 0) {
                continue;
              }
              units.push_back(pivoted(pivot));
            }
          }
        } else if (!options.semi_naive || round == 1 || recursive == 0) {
          units.push_back(sources);
        } else {
          for (size_t pivot = 0; pivot < clause.body.size(); ++pivot) {
            const NormalizedBodyAtom& atom = clause.body[pivot];
            if (!atom.is_intensional || atom.negated ||
                strata.at(atom.predicate) != stratum) {
              continue;
            }
            if (sources[pivot].relation->delta_size() == 0) continue;
            units.push_back(pivoted(pivot));
          }
        }
        for (const std::vector<AtomSource>& unit : units) {
          Status applied = apply(ci, unit);
          if (!applied.ok()) {
            if (!IsGovernanceTrip(exec, applied)) return applied;
            degrade(applied);
            return result;
          }
        }
      }

      // Insert candidates; the store reports growth and new signatures
      // (free extensions) directly from its interning probe.
      stats.candidates = static_cast<int>(candidates.size);
      const SteadyTime insert_start = Now();
      bool grew = false;
      CandidateRows::Reader reader(candidates);
      for (const auto& [clause_index, count] : runs) {
        const NormalizedClause& clause = normalized.clauses[clause_index];
        const std::string& name =
            program.predicates().NameOf(clause.head_predicate);
        GeneralizedRelation& relation = result.idb.at(name);
        const int m = static_cast<int>(clause.head_temporal_vars.size());
        const int k = static_cast<int>(clause.head_data.size());
        RuleProfile& rule_profile = result.profile.rules[clause_index];
        for (size_t c = 0; c < count; ++c) {
          // A view of the candidate's row; the store copies it.
          const TupleView tuple = reader.Next(m, k);
          InsertOutcome outcome;
          {
            StatusOr<InsertOutcome> outcome_or = relation.Insert(
                tuple, &stats.store, TupleStore::Row::kClosedPiece);
            if (!outcome_or.ok()) {
              if (!IsGovernanceTrip(exec, outcome_or.status())) {
                return outcome_or.status();
              }
              degrade(outcome_or.status());
              return result;
            }
            outcome = *std::move(outcome_or);
          }
          // Record the candidate's derivation origin: on insert against the
          // fresh entry, on subsumption against every absorbing entry (a
          // sound over-approximation; provenance.h). Empty-ground-set drops
          // derived nothing and record nothing.
          if (prov != nullptr) {
            const ClauseProv& cp = clause_prov[clause_index];
            const std::span<const EntryId> pids =
                reader.NextParents(cp.parents.size());
            if (outcome.inserted || !outcome.absorbers.empty()) {
              DerivationOrigin origin;
              origin.rule = clause_index;
              origin.round = total_rounds;
              origin.parents.reserve(pids.size());
              for (size_t p = 0; p < pids.size(); ++p) {
                origin.parents.push_back(ProvRef{cp.parents[p], pids[p]});
              }
              Status recorded = OkStatus();
              if (outcome.inserted) {
                recorded = prov->Record(ProvRef{cp.head, outcome.id},
                                        std::move(origin));
              } else {
                for (size_t a = 0; a < outcome.absorbers.size(); ++a) {
                  recorded = prov->Record(
                      ProvRef{cp.head, outcome.absorbers[a]},
                      a + 1 == outcome.absorbers.size() ? std::move(origin)
                                                        : origin);
                  if (!recorded.ok()) break;
                }
              }
              if (!recorded.ok()) {
                if (!IsGovernanceTrip(exec, recorded)) return recorded;
                degrade(recorded);
                return result;
              }
            }
          }
          if (options.record_trace) {
            result.trace.push_back(TraceEntry{total_rounds, clause_index,
                                              name, tuple.ToTuple(),
                                              outcome.inserted});
          }
          if (outcome.inserted) {
            grew = true;
            ++stats.inserted;
            ++rule_profile.inserted;
            if (outcome.new_signature) {
              last_new_fe_round = total_rounds;
              ++stats.new_free_extensions;
              ++rule_profile.new_free_extensions;
            }
          } else {
            ++rule_profile.subsumed;
          }
        }
      }
      stats.insert_us = UsSince(insert_start);
      // Promote generations: this round's inserts become the next round's
      // delta; the previous delta joins "current".
      for (auto& [unused, relation] : result.idb) {
        relation.AdvanceGeneration();
      }

      result.iterations = total_rounds;
      stats.duration_us = UsSince(round_start);
      round_span.AddArg("candidates", stats.candidates);
      round_span.AddArg("inserted", stats.inserted);
      round_span.AddArg("delta_tuples", stats.delta_tuples);
      PublishRound(stats);
      result.rounds.push_back(stats);
      if (exec != nullptr) exec->ReportCompletedRound(total_rounds);
      if (!grew) break;  // This stratum reached its fixpoint.
      if (total_rounds - std::max(last_new_fe_round, stratum_start) >=
          options.fes_patience) {
        result.gave_up_reason =
            "free-extension safe but not constraint safe after " +
            std::to_string(options.fes_patience) + " rounds (Section 4.3 "
            "give-up)";
        result.free_extension_safe_at = last_new_fe_round;
        finalize();
        return result;
      }
    }
  }
  result.reached_fixpoint = true;
  result.free_extension_safe_at = last_new_fe_round;
  finalize();
  return result;
}

}  // namespace

[[nodiscard]] StatusOr<EvaluationResult> Evaluate(const Program& program, const Database& db,
                                    const EvaluationOptions& options) {
  return EvaluateInternal(program, db, options, /*resume=*/nullptr);
}

[[nodiscard]] StatusOr<EvaluationResult> ResumeEvaluate(
    const Program& program, const Database& db,
    const EvaluationOptions& options, ResumeSeed seed) {
  LRPDB_FAILPOINT("evaluator.resume_evaluate");
  return EvaluateInternal(program, db, options, &seed);
}

[[nodiscard]] StatusOr<GeneralizedRelation> QueryAtom(const Program& program,
                                        const Database& db,
                                        const EvaluationResult& result,
                                        const PredicateAtom& query,
                                        const EvaluationOptions& options) {
  LRPDB_FAILPOINT("evaluator.query_atom");
  ExecContext::ScopedCurrent scoped_exec(options.exec);
  // A one-atom clause whose head lists the query's distinct variables.
  ClauseBuilder builder(program.variables());
  const bool is_intensional =
      result.idb.count(program.predicates().NameOf(query.predicate)) > 0;
  builder.AddAtom(query.predicate, is_intensional, /*negated=*/false,
                  query.temporal_args, query.data_args);
  NormalizedClause& clause = builder.clause();
  for (const TemporalTerm& t : query.temporal_args) {
    if (t.is_constant()) continue;
    const int v = builder.TemporalVar(t.variable);
    if (std::find(clause.head_temporal_vars.begin(),
                  clause.head_temporal_vars.end(),
                  v) == clause.head_temporal_vars.end()) {
      clause.head_temporal_vars.push_back(v);
    }
  }
  // Every data variable is a head column, in order of first occurrence.
  for (int v = 0; v < clause.num_data_vars; ++v) {
    clause.head_data.push_back({.variable = v, .constant = -1});
  }
  RelationResolver resolver(program, db, &result.idb);
  LRPDB_ASSIGN_OR_RETURN(const GeneralizedRelation* relation,
                         resolver.Resolve(query.predicate, is_intensional));
  return ApplyClauseOnce(builder.Finish(), {relation});
}

}  // namespace lrpdb
