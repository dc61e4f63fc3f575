// Generalized-tuple-at-a-time bottom-up evaluation (paper, Section 4.3).
//
// The engine iterates the mapping T_GP + I over generalized Herbrand
// interpretations: each round applies every normalized clause to the
// current generalized relations -- a join of the body atoms' binding
// relations, projected onto the head variables -- producing candidate head
// tuples whose possibly infinite ground sets are inserted with an exact
// "adds nothing new" test.
//
// Termination bookkeeping mirrors the paper:
//  * free-extension safety (Theorem 4.2): a round adds no generalized tuple
//    with a new free extension (lrp vector + data). This is guaranteed to
//    happen eventually because the lrp periods that can appear divide the
//    product of the EDB periods.
//  * constraint safety (Theorem 4.3): every candidate's constraint set is
//    implied by the union of the constraints of stored tuples with the same
//    free extension. Decided exactly via DBM subtraction.
// Both safeties hold simultaneously iff a round inserts nothing, i.e. the
// least fixpoint has been reached in closed form. Programs such as
// (i, i^2) reach free-extension safety but never constraint safety; the
// engine then gives up per options.fes_patience with kResourceExhausted,
// matching the paper's recommendation.
#ifndef LRPDB_CORE_EVALUATOR_H_
#define LRPDB_CORE_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/exec_context.h"
#include "src/common/statusor.h"
#include "src/core/normalizer.h"
#include "src/gdb/database.h"

namespace lrpdb {
class ProvenanceLog;
}

namespace lrpdb {

struct EvaluationOptions {
  // Use semi-naive (delta-driven) evaluation; naive re-derives everything
  // each round. Both produce the same model; iteration counts below refer to
  // T_GP + I rounds and match between the two modes.
  bool semi_naive = true;
  // Hard cap on T_GP + I rounds.
  int max_iterations = 10000;
  // Give up this many rounds after free-extension safety if constraint
  // safety still has not been reached (Section 4.3: "it is reasonable to
  // give up on the computation if the interpretation does not become
  // constraint safe after a few iterations").
  int fes_patience = 64;
  // Record every candidate tuple per round (for traces such as the
  // Example 4.1 table).
  bool record_trace = false;
  // Optional execution governance: deadline, tuple/byte budgets, step
  // quota, cooperative cancellation (src/common/exec_context.h). Not
  // owned; must outlive the evaluation. When a limit trips, Evaluate()
  // degrades gracefully: it returns OK with reached_fixpoint == false and
  // EvaluationResult::partial describing the trip (its `trip` code is
  // kDeadlineExceeded / kCancelled / kResourceExhausted) over the sound
  // partial model. The context also caps rounds at
  // ExecContext::max_rounds() (default kDefaultMaxRounds) on top of
  // max_iterations above. Evaluate, ResumeEvaluate and QueryAtom install
  // it as ExecContext::Current() for the call; every layer below (clause
  // kernel, tuple store, normalization, DBM closure, provenance) polls and
  // charges it from there.
  ExecContext* exec = nullptr;
  // Optional why-provenance recording (src/core/provenance.h): when
  // non-null, every IDB insert records a derivation origin — (clause
  // index, positive-body parent EntryIds, round) — into this log,
  // subsumption-aware. Not owned; must outlive the evaluation and any
  // WhyProvenance queries over its EntryIds. Recording leaves the model
  // as it is: with or without a log, Evaluate returns exactly the tuples
  // the rounds inserted.
  ProvenanceLog* provenance = nullptr;
};

// One candidate head tuple derivation.
struct TraceEntry {
  int iteration = 0;
  int clause_index = 0;
  std::string predicate;
  GeneralizedTuple tuple;
  bool inserted = false;  // False when subsumed (no new ground tuples).
};

// Per-round bookkeeping, exposed for analysis (e.g. experiment E2 reads the
// orbit structure off these).
struct RoundStats {
  int round = 0;    // 1-based, cumulative across strata.
  int stratum = 0;  // Stratum the round ran in.
  int candidates = 0;
  int inserted = 0;
  int new_free_extensions = 0;
  // Tuples in the delta generations feeding this round's semi-naive joins.
  int64_t delta_tuples = 0;
  // Wall time of the round, split into the clause-application (join +
  // head projection) and candidate-insertion (subsumption) phases.
  int64_t duration_us = 0;
  int64_t apply_us = 0;
  int64_t insert_us = 0;
  // Storage-engine counters for the round (see StoreStats in
  // src/gdb/tuple_store.h): insert-side signature probes and bucket-bounded
  // subsumption work, and join-side index probes with scanned/pruned tuple
  // counts. scanned + pruned always equals the tuples a full scan would
  // have visited, so pruned > 0 certifies the index did real work.
  StoreStats store;
};

// Cost attribution for one normalized clause across the whole evaluation:
// how often it was applied, what it derived, and what that cost. Together
// with the per-round RoundStats this is the engine's EXPLAIN output -- it
// makes the Theorem 4.2/4.3 termination behavior auditable per rule rather
// than through opaque wall clocks.
struct RuleProfile {
  int clause_index = 0;
  std::string head_predicate;
  std::string rule;  // Rendered "head :- body" sketch for dumps.
  // ApplyClauseBatch invocations: 1 for the initial full round plus one per
  // nonempty semi-naive delta pivot per later round.
  int64_t applications = 0;
  int64_t derivations = 0;   // Candidate head tuples produced (attempted).
  int64_t inserted = 0;      // Candidates kept (new ground tuples).
  int64_t subsumed = 0;      // Candidates adding nothing new (or empty).
  int64_t new_free_extensions = 0;  // Inserted tuples with a new signature.
  int64_t apply_us = 0;      // Wall time applying the clause (join + project).
};

// The evaluation's EXPLAIN profile: per-rule totals plus evaluation-wide
// timings. Per-round delta sizes and phase timings live in
// EvaluationResult::rounds.
struct EvalProfile {
  std::vector<RuleProfile> rules;
  int64_t normalize_us = 0;  // Program normalization (clause preparation).
  int64_t total_us = 0;      // Whole Evaluate() call.

  int64_t TotalDerivations() const;
  int64_t TotalInserted() const;
};

struct EvaluationResult {
  // Final extensions of the intensional predicates (name -> relation):
  // exactly the tuples the rounds inserted, in insertion order. Nothing
  // runs after the fixpoint, so the closed form does not depend on
  // whether provenance was recorded.
  std::map<std::string, GeneralizedRelation> idb;
  // Rounds executed, including the final confirming round.
  int iterations = 0;
  // One entry per executed round.
  std::vector<RoundStats> rounds;
  // First round after which no new free extension ever appeared, i.e. the
  // k of Theorem 4.2 observed on this run (0 if the program adds nothing).
  int free_extension_safe_at = -1;
  // True iff the least fixpoint was reached (closed form obtained). False
  // means the engine gave up per max_iterations/fes_patience; the partial
  // model computed so far is still sound (a subset of the least fixpoint).
  bool reached_fixpoint = false;
  // Human-readable reason when reached_fixpoint is false.
  std::string gave_up_reason;
  std::vector<TraceEntry> trace;
  // Per-rule EXPLAIN profile. The counts are always collected (a few plain
  // integer adds per round, independent of the obs layer); the *_us timings
  // follow LRPDB_NO_METRICS and read as 0 in uninstrumented builds.
  EvalProfile profile;
  // Governance trip report (partial.tripped() is false on ungoverned runs
  // and on runs that finished within their limits). When set, `idb` holds
  // the sound partial model of the last completed rounds: every tuple in it
  // is in the least fixpoint, and rounds/profile explain where the budget
  // went.
  PartialResult partial;

  // Convenience lookup; CHECK-fails on unknown predicate.
  const GeneralizedRelation& Relation(const std::string& name) const;

  // Sum of the per-round storage counters.
  StoreStats StoreTotals() const;
  // Total live generalized tuples across the IDB relations (tombstoned
  // slots awaiting IncrementalEvaluator::CompactRetracted are not counted).
  // Equals the sum of RoundStats::inserted on a fresh Evaluate.
  int64_t TuplesStored() const;

  // Human-readable EXPLAIN dump: one line per rule (derivations attempted /
  // kept / subsumed, time) and one per round (delta sizes, phase split).
  // With include_timings == false every wall-clock field is omitted; the
  // remaining dump is a pure function of the computed model and therefore
  // identical across runs.
  std::string Explain(bool include_timings) const;
  std::string Explain() const { return Explain(/*include_timings=*/true); }
};

// Evaluates `program` bottom-up over the extensional database `db`.
// Exceeding max_iterations/fes_patience is reported in-band
// (reached_fixpoint == false); so is a governance trip from options.exec
// (reached_fixpoint == false and result.partial.tripped()), preserving the
// sound partial model. A Status error indicates an invalid program or a
// blown normalization budget.
[[nodiscard]] StatusOr<EvaluationResult> Evaluate(const Program& program, const Database& db,
                                    const EvaluationOptions& options =
                                        EvaluationOptions());

// Seed for resuming a previously computed fixpoint in place instead of
// refixpointing from scratch (incremental maintenance, DESIGN.md §13).
// ResumeEvaluate adopts `idb` (the relations of the prior run, moved in)
// and runs the same semi-naive loop with a modified first round:
//  * clauses whose head predicate is named in `rederive_heads` are applied
//    in full (every generation), re-deriving anything a retraction
//    over-deleted;
//  * every other clause is applied once per positive body atom whose
//    store currently has a non-empty delta generation (EDB stores seeded
//    by AddFacts included), with that atom pivoted to the delta range.
// Rounds >= 2 are the unmodified semi-naive loop, so the resumed run
// reaches the same least fixpoint as a from-scratch evaluation of the
// updated database (soundness/completeness argument in DESIGN.md §13).
// Restricted to semi-naive, negation-free (single-stratum) programs;
// callers fall back to Evaluate() otherwise.
struct ResumeSeed {
  // Prior-run IDB relations, adopted (moved) into the resumed result. Any
  // intensional predicate missing here starts empty.
  std::map<std::string, GeneralizedRelation> idb;
  // Head predicates to re-apply in full during the first resumed round.
  std::set<std::string> rederive_heads;
};

[[nodiscard]] StatusOr<EvaluationResult> ResumeEvaluate(
    const Program& program, const Database& db,
    const EvaluationOptions& options, ResumeSeed seed);

// Evaluates a single query atom against the computed model (IDB) plus the
// extensional database: returns the relation of answer bindings, one
// temporal column per distinct temporal variable of `query` (in order of
// first occurrence) and one data column per distinct data variable. A fully
// ground query yields a 0-ary relation that is non-empty iff the answer is
// "yes".
[[nodiscard]] StatusOr<GeneralizedRelation> QueryAtom(const Program& program,
                                        const Database& db,
                                        const EvaluationResult& result,
                                        const PredicateAtom& query,
                                        const EvaluationOptions& options =
                                            EvaluationOptions());

}  // namespace lrpdb

#endif  // LRPDB_CORE_EVALUATOR_H_
