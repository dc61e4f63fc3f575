#include "src/core/evaluator.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/thread_pool.h"
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

// Shared machinery between Evaluate and QueryAtom: resolves the relation a
// body atom reads from, including the complement relations backing negated
// body literals (stratified negation: by the time a stratum reads !q, q is
// final, so its complement can be materialized once).
class RelationResolver {
 public:
  RelationResolver(const Program& program, const Database& db,
                   std::map<std::string, GeneralizedRelation>* idb)
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
      SymbolId predicate, bool is_intensional,
      const NormalizeLimits& limits) {
    auto it = complements_.find(predicate);
    if (it != complements_.end()) return &it->second;
    LRPDB_ASSIGN_OR_RETURN(const GeneralizedRelation* relation,
                           Resolve(predicate, is_intensional));
    LRPDB_ASSIGN_OR_RETURN(
        std::vector<std::vector<DataValue>> universe,
        DataUniverse(relation->schema().data_arity, limits));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation complement,
                           Complement(*relation, universe, limits));
    auto [inserted, unused] =
        complements_.emplace(predicate, std::move(complement));
    return &inserted->second;
  }

  // Collects the active data domain: every constant stored in the database
  // plus every constant written in the program.
  void SetActiveDomain(std::vector<DataValue> domain) {
    active_domain_ = std::move(domain);
  }

 private:
  [[nodiscard]] StatusOr<std::vector<std::vector<DataValue>>> DataUniverse(
      int arity, const NormalizeLimits& limits) const {
    LRPDB_FAILPOINT("evaluator.data_universe");
    constexpr int64_t kMaxRows = 65536;
    std::vector<std::vector<DataValue>> rows;
    if (arity == 0) {
      rows.push_back({});
      return rows;
    }
    int64_t count = 1;
    for (int i = 0; i < arity; ++i) {
      count *= static_cast<int64_t>(active_domain_.size());
      if (count > kMaxRows) {
        return ResourceExhaustedError(
            "data universe for negation exceeds the row budget");
      }
    }
    std::vector<size_t> index(arity, 0);
    if (active_domain_.empty()) return rows;
    while (true) {
      LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
      std::vector<DataValue> row(arity);
      for (int i = 0; i < arity; ++i) row[i] = active_domain_[index[i]];
      rows.push_back(std::move(row));
      int pos = arity;
      bool done = false;
      while (pos > 0) {
        --pos;
        if (++index[pos] < active_domain_.size()) break;
        index[pos] = 0;
        done = pos == 0;
      }
      if (done) break;
    }
    return rows;
  }

  const Program& program_;
  const Database& db_;
  std::map<std::string, GeneralizedRelation>* idb_;
  std::vector<DataValue> active_domain_;
  std::map<SymbolId, GeneralizedRelation> complements_;
};

// All data constants visible to the evaluation.
std::vector<DataValue> CollectActiveDomain(const Program& program,
                                           const Database& db) {
  std::set<DataValue> domain;
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    const TupleStore& store = (*relation)->store();
    for (EntryId id : store.live_ids()) {
      for (DataValue d : store.tuple(id).data()) domain.insert(d);
    }
  }
  for (const Clause& clause : program.clauses()) {
    auto collect = [&domain](const PredicateAtom& atom) {
      for (const DataTerm& d : atom.data_args) {
        if (d.is_constant()) domain.insert(d.constant);
      }
    };
    collect(clause.head);
    for (const BodyAtom& atom : clause.body) {
      if (const auto* pred = std::get_if<PredicateAtom>(&atom)) {
        collect(*pred);
      }
    }
  }
  return {domain.begin(), domain.end()};
}

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
    total += static_cast<int64_t>(relation.store().live_size());
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
  // computed model: Explain(false) is what the determinism differential
  // compares across thread counts, so timing-free lines must stay free of
  // any run-dependent value (wall clocks, thread counts, pointers).
  std::string out;
  const std::string outcome =
      reached_fixpoint ? "fixpoint reached" : "gave up: " + gave_up_reason;
  Appendf(&out, "EXPLAIN: %d rounds, %s, %lld derivations, %lld kept",
          iterations, outcome.c_str(),
          static_cast<long long>(profile.TotalDerivations()),
          static_cast<long long>(profile.TotalInserted()));
  if (include_timings) {
    Appendf(&out, " (total %lld us, normalize %lld us, compact %lld us)",
            static_cast<long long>(profile.total_us),
            static_cast<long long>(profile.normalize_us),
            static_cast<long long>(profile.compact_us));
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
  NormalizeLimits limits = options.limits;
  limits.exec = exec;
  // Layers whose signatures cannot carry the context (DBM closure inside
  // const queries) charge the ambient thread-local context instead.
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
  resolver.SetActiveDomain(CollectActiveDomain(program, db));

  // Worker threads for the clause-application phase. The resolved count
  // affects wall time only: candidate deltas are merged in fixed task
  // order, so the stored model, insertion order, and all Explain() counts
  // are identical for any value (DESIGN.md §8).
  const int threads =
      options.num_threads > 0
          ? std::min(options.num_threads, ThreadPool::kMaxThreads)
          : ThreadPool::DefaultThreads();
  result.threads = threads;
  LRPDB_GAUGE_SET("eval.parallel.threads", threads);

  // Each clause's plan is compiled once, before the first round; workers
  // see const ClausePlan pointers.
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
  // existing max_iterations/fes_patience give-ups.
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
      if (total_rounds + 1 > options.max_iterations) {
        result.iterations = options.max_iterations;
        result.gave_up_reason = "max_iterations reached";
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
            static_cast<int64_t>(relation.store().delta_size());
      }
      std::vector<std::pair<int, GeneralizedTuple>> candidates;
      // Kept 1:1 with `candidates` while capturing provenance.
      std::vector<std::vector<EntryId>> candidate_parents;
      // Build the round's task list sequentially, in clause order then
      // pivot order — exactly the call order of the single-threaded
      // engine. Each (clause, pivot) unit is further split into shards over
      // body atom 0's enumeration range: ApplyClauseBatch yields candidates
      // in lexicographic body-order entry-id order (clause_plan.h), so
      // concatenating shard outputs in shard order reproduces the
      // unsharded candidate sequence for any shard boundaries.
      struct RoundTask {
        int clause_index = 0;
        const ClausePlan* plan = nullptr;
        std::vector<AtomSource> sources;
        bool counts_application = false;  // First shard of its unit.
        // Worker outputs, merged sequentially after the round barrier.
        std::vector<GeneralizedTuple> candidates;
        // 1:1 with candidates while capturing provenance; empty otherwise.
        std::vector<std::vector<EntryId>> parent_ids;
        StoreStats store;
        int64_t apply_us = 0;
      };
      std::vector<RoundTask> tasks;
      auto add_tasks = [&](size_t ci, const std::vector<AtomSource>& sources) {
        const NormalizedClause& clause = normalized.clauses[ci];
        const ClausePlan* plan = &plans[ci];
        const size_t range = clause.body.empty() || clause.always_false
                                 ? 0
                                 : sources[0].hi - sources[0].lo;
        size_t num_shards = 1;
        if (threads > 1 && range > 1) {
          // A few shards per worker so an uneven split still balances.
          num_shards = std::min(range, static_cast<size_t>(threads) * 4);
        }
        for (size_t s = 0; s < num_shards; ++s) {
          RoundTask task;
          task.clause_index = static_cast<int>(ci);
          task.plan = plan;
          task.sources = sources;
          task.counts_application = s == 0;
          if (num_shards > 1) {
            const size_t lo = sources[0].lo;
            task.sources[0].lo = lo + range * s / num_shards;
            task.sources[0].hi = lo + range * (s + 1) / num_shards;
          }
          tasks.push_back(std::move(task));
        }
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

        // Resolving sources stays sequential: complements of negated
        // relations materialize lazily here, before any worker runs, so
        // every task reads frozen relations only.
        std::vector<AtomSource> sources(clause.body.size());
        for (size_t a = 0; a < clause.body.size(); ++a) {
          const NormalizedBodyAtom& atom = clause.body[a];
          if (atom.negated) {
            StatusOr<const GeneralizedRelation*> negated =
                resolver.ResolveNegated(atom.predicate, atom.is_intensional,
                                        limits);
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
          sources[a].hi = sources[a].relation->store().size();
        }
        // Pivots `sources` to body atom `pivot`'s delta generation.
        auto pivoted = [&sources](size_t pivot) {
          std::vector<AtomSource> pivot_sources = sources;
          const TupleStore& store = sources[pivot].relation->store();
          pivot_sources[pivot].lo = store.delta_lo();
          pivot_sources[pivot].hi = store.delta_hi();
          return pivot_sources;
        };
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
            add_tasks(ci, sources);
          } else {
            for (size_t pivot = 0; pivot < clause.body.size(); ++pivot) {
              if (clause.body[pivot].negated) continue;
              if (sources[pivot].relation->store().delta_size() == 0) {
                continue;
              }
              add_tasks(ci, pivoted(pivot));
            }
          }
        } else if (!options.semi_naive || round == 1 || recursive == 0) {
          add_tasks(ci, sources);
        } else {
          for (size_t pivot = 0; pivot < clause.body.size(); ++pivot) {
            const NormalizedBodyAtom& atom = clause.body[pivot];
            if (!atom.is_intensional || atom.negated ||
                strata.at(atom.predicate) != stratum) {
              continue;
            }
            if (sources[pivot].relation->store().delta_size() == 0) continue;
            add_tasks(ci, pivoted(pivot));
          }
        }
      }

      // Apply phase: workers claim tasks in index order and fill each
      // task's private outputs. All shared state a worker touches is
      // frozen for the round (stores mutate only in the insert phase
      // below); ParallelFor reports the lowest-indexed failure, matching
      // the error the sequential loop would have hit first.
      const SteadyTime apply_start = Now();
      Status applied = ThreadPool::Global().ParallelFor(
          static_cast<int64_t>(tasks.size()), /*grain=*/1, threads, exec,
          [&](int64_t begin, int64_t end) -> Status {
            for (int64_t t = begin; t < end; ++t) {
              RoundTask& task = tasks[static_cast<size_t>(t)];
              LRPDB_TRACE_SPAN(task_span, "eval.task");
              task_span.AddArg("clause",
                               static_cast<int64_t>(task.clause_index));
              task_span.AddArg("round", total_rounds);
              const SteadyTime task_start = Now();
              const NormalizedClause& clause =
                  normalized.clauses[task.clause_index];
              std::vector<std::vector<EntryId>>* task_parents =
                  prov != nullptr ? &task.parent_ids : nullptr;
              LRPDB_RETURN_IF_ERROR(ApplyClauseBatch(
                  clause, *task.plan, task.sources, limits, &task.store,
                  &task.candidates, task_parents));
              task.apply_us = UsSince(task_start);
              LRPDB_COUNTER_INC("eval.parallel.tasks");
            }
            return OkStatus();
          });
      if (!applied.ok()) {
        if (!IsGovernanceTrip(exec, applied)) return applied;
        degrade(applied);
        return result;
      }
      LRPDB_HISTOGRAM_RECORD("eval.parallel.apply_wall_us",
                             UsSince(apply_start));

      // Merge phase, sequential and in fixed task order: candidate order —
      // hence insertion order, hence the stored model and every profile
      // count — is independent of the thread count.
      const SteadyTime merge_start = Now();
      for (RoundTask& task : tasks) {
        RuleProfile& rule_profile = result.profile.rules[task.clause_index];
        if (task.counts_application) ++rule_profile.applications;
        rule_profile.derivations +=
            static_cast<int64_t>(task.candidates.size());
        rule_profile.apply_us += task.apply_us;
        stats.apply_us += task.apply_us;
        stats.store.Accumulate(task.store);
        for (GeneralizedTuple& t : task.candidates) {
          candidates.emplace_back(task.clause_index, std::move(t));
        }
        if (prov != nullptr) {
          for (std::vector<EntryId>& p : task.parent_ids) {
            candidate_parents.push_back(std::move(p));
          }
        }
      }
      LRPDB_HISTOGRAM_RECORD("eval.parallel.merge_us", UsSince(merge_start));

      // Insert candidates; the store reports growth and new signatures
      // (free extensions) directly from its interning probe.
      stats.candidates = static_cast<int>(candidates.size());
      const SteadyTime insert_start = Now();
      bool grew = false;
      for (size_t cand_i = 0; cand_i < candidates.size(); ++cand_i) {
        auto& [clause_index, tuple] = candidates[cand_i];
        const std::string& name = program.predicates().NameOf(
            normalized.clauses[clause_index].head_predicate);
        GeneralizedRelation& relation = result.idb.at(name);
        RuleProfile& rule_profile = result.profile.rules[clause_index];
        InsertOutcome outcome;
        {
          StatusOr<InsertOutcome> outcome_or =
              options.record_trace
                  ? relation.mutable_store().Insert(tuple, limits,
                                                    &stats.store)
                  : relation.mutable_store().Insert(std::move(tuple), limits,
                                                    &stats.store);
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
        // derived nothing and record nothing. Recording runs in this
        // sequential phase only — the log needs no locking.
        if (prov != nullptr &&
            (outcome.inserted || !outcome.absorbers.empty())) {
          const ClauseProv& cp = clause_prov[clause_index];
          DerivationOrigin origin;
          origin.rule = clause_index;
          origin.round = total_rounds;
          const std::vector<EntryId>& pids = candidate_parents[cand_i];
          origin.parents.reserve(pids.size());
          for (size_t k = 0; k < pids.size(); ++k) {
            origin.parents.push_back(ProvRef{cp.parents[k], pids[k]});
          }
          Status recorded = OkStatus();
          if (outcome.inserted) {
            recorded =
                prov->Record(ProvRef{cp.head, outcome.id}, std::move(origin));
          } else {
            for (size_t k = 0; k < outcome.absorbers.size(); ++k) {
              recorded = prov->Record(
                  ProvRef{cp.head, outcome.absorbers[k]},
                  k + 1 == outcome.absorbers.size() ? std::move(origin)
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
        if (options.record_trace) {
          result.trace.push_back(TraceEntry{total_rounds, clause_index, name,
                                            std::move(tuple),
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
      stats.insert_us = UsSince(insert_start);
      // Promote generations: this round's inserts become the next round's
      // delta; the previous delta joins "current".
      for (auto& [unused, relation] : result.idb) {
        relation.mutable_store().AdvanceGeneration();
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
  // Compaction renumbers entries, which would leave every recorded
  // (relation, entry) address dangling — skipped while capturing provenance
  // (same model, uncompacted closed form).
  if (options.compact_results && prov == nullptr) {
    const SteadyTime compact_start = Now();
    LRPDB_TRACE_SPAN(compact_span, "eval.compact");
    // The merges are planned over read-only views of the stored tuples, so
    // a relation nothing merges in is left exactly as it is. A relation
    // that merges gets its merged tuples inserted first and only then loses
    // their members: a trip or fault at any point leaves the complete
    // model, at worst with some members still beside their merged tuple.
    int64_t merged = 0;
    int64_t consumed = 0;
    auto compact = [&]() -> Status {
      LRPDB_FAILPOINT("evaluator.compact");
      for (auto& [unused, relation] : result.idb) {
        TupleStore& store = relation.mutable_store();
        std::vector<const GeneralizedTuple*> views;
        std::vector<EntryId> ids;
        views.reserve(store.live_size());
        ids.reserve(store.live_size());
        for (EntryId id : store.live_ids()) {
          views.push_back(&store.tuple(id));
          ids.push_back(id);
        }
        LRPDB_ASSIGN_OR_RETURN(CoalescePlan plan, PlanCoalesce(views, limits));
        if (plan.merged.empty()) continue;
        // Inserting below may move the entries the views point into.
        views.clear();
        // Only the merged tuples are charged to the budget: the model they
        // replace was charged when the rounds inserted it.
        for (GeneralizedTuple& t : plan.merged) {
          LRPDB_RETURN_IF_ERROR(store.Insert(std::move(t), limits).status());
        }
        std::vector<EntryId> erase;
        erase.reserve(plan.consumed.size());
        for (size_t v : plan.consumed) erase.push_back(ids[v]);
        store.EraseEntries(erase);
        // Fold the merged tuples into "current", where the fixpoint left
        // every other entry.
        store.AdvanceGeneration();
        store.AdvanceGeneration();
        merged += static_cast<int64_t>(plan.merged.size());
        consumed += static_cast<int64_t>(plan.consumed.size());
      }
      return OkStatus();
    };
    Status compacted = compact();
    compact_span.AddArg("merged", merged);
    compact_span.AddArg("consumed", consumed);
    result.profile.compact_us = UsSince(compact_start);
    LRPDB_HISTOGRAM_RECORD("eval.compact_us", result.profile.compact_us);
    if (!compacted.ok()) {
      if (!IsGovernanceTrip(exec, compacted)) return compacted;
      // The model itself is already exact; only its compaction was cut
      // short, so reached_fixpoint deliberately stays true.
      degrade(compacted);
      return result;
    }
  }
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
  ExecContext* exec = options.exec;
  NormalizeLimits limits = options.limits;
  limits.exec = exec;
  ExecContext::ScopedCurrent scoped_exec(exec);
  // Build a one-atom synthetic clause whose head lists the query's distinct
  // variables, then run it through the clause kernel.
  NormalizedClause clause;
  clause.head_predicate = -1;
  std::map<SymbolId, int> temporal_ids;
  std::map<SymbolId, int> data_ids;
  NormalizedBodyAtom atom;
  atom.predicate = query.predicate;
  const std::string& name = program.predicates().NameOf(query.predicate);
  atom.is_intensional = result.idb.count(name) > 0;
  std::vector<std::pair<int, int64_t>> pinned;  // (var, constant value).
  for (const TemporalTerm& t : query.temporal_args) {
    if (t.is_constant()) {
      int v = clause.num_temporal_vars++;
      clause.temporal_var_names.push_back("$c");
      pinned.emplace_back(v, t.offset);
      atom.temporal_args.emplace_back(v, 0);
    } else {
      auto [it, inserted] =
          temporal_ids.emplace(t.variable, clause.num_temporal_vars);
      if (inserted) {
        ++clause.num_temporal_vars;
        clause.temporal_var_names.push_back(
            program.variables().NameOf(t.variable));
        clause.head_temporal_vars.push_back(it->second);
      }
      atom.temporal_args.emplace_back(it->second, t.offset);
    }
  }
  for (const DataTerm& d : query.data_args) {
    if (d.is_constant()) {
      atom.data_args.push_back({.variable = -1, .constant = d.constant});
    } else {
      auto [it, inserted] = data_ids.emplace(d.variable, clause.num_data_vars);
      if (inserted) {
        ++clause.num_data_vars;
        clause.data_var_names.push_back(
            program.variables().NameOf(d.variable));
        clause.head_data.push_back({.variable = it->second, .constant = -1});
      }
      atom.data_args.push_back({.variable = it->second, .constant = -1});
    }
  }
  clause.body.push_back(std::move(atom));
  clause.constraint = Dbm(clause.num_temporal_vars);
  for (auto [v, value] : pinned) clause.constraint.AddEquality(v + 1, value);

  // Resolve the relation.
  auto idb = const_cast<std::map<std::string, GeneralizedRelation>*>(
      &result.idb);
  RelationResolver resolver(program, db, idb);
  std::vector<AtomSource> sources(1);
  LRPDB_ASSIGN_OR_RETURN(
      sources[0].relation,
      resolver.Resolve(query.predicate, clause.body[0].is_intensional));
  sources[0].hi = sources[0].relation->store().size();

  std::vector<GeneralizedTuple> candidates;
  LRPDB_RETURN_IF_ERROR(ApplyClauseBatch(clause, CompileClausePlan(clause),
                                         sources, limits, /*stats=*/nullptr,
                                         &candidates));
  GeneralizedRelation answers(
      {static_cast<int>(clause.head_temporal_vars.size()),
       static_cast<int>(clause.head_data.size())});
  for (GeneralizedTuple& t : candidates) {
    LRPDB_RETURN_IF_ERROR(
        answers.InsertIfNew(std::move(t), limits).status());
  }
  return answers;
}

}  // namespace lrpdb
