// Incremental maintenance of a materialized model (DESIGN.md §13,
// ROADMAP item 1).
//
// Evaluate() computes a least fixpoint from scratch every time. For live
// traffic the update stream is small relative to the model, so the
// IncrementalEvaluator keeps the fixpoint materialized and maintains it in
// place:
//
//  * AddFacts(batch) inserts the genuinely new tuples into the EDB stores,
//    promotes exactly those entries to a fresh delta generation, and
//    resumes the existing semi-naive loop (ResumeEvaluate) — the first
//    resumed round pivots every clause on the pending deltas, later rounds
//    are the unmodified loop. No work happens for clauses none of whose
//    body relations changed.
//
//  * RetractFacts(batch) removes EDB tuples by exact value match and runs
//    DRed-style deletion: the recorded provenance reverse index
//    (ProvenanceLog::Dependents) drives an over-delete of every transitive
//    dependent — sound because an entry's recorded origins over-approximate
//    its real derivations (subsumption absorbers, provenance.h) — then the
//    affected head relations re-derive in full through the same resumed
//    loop. Retracting a fact that was absorbed at insert time (never
//    stored) is a no-op and does not resurrect what its absorber covered:
//    the stored model is the unit of retraction.
//
// Both operations leave the model semantically identical to a from-scratch
// refixpoint of the updated database (the differential gauntlet in
// tests/incremental_test.cc enforces ground-window equality, plus
// bit-identical stored dumps across thread counts for the incremental runs
// themselves).
//
// Fallbacks. Programs with negation (materialized complements go stale
// across updates) and models that never reached fixpoint fall back to a
// full re-evaluation of the updated database — same answers, no
// incremental speedup. The eval.inc.fallbacks counter makes the
// degradation observable.
#ifndef LRPDB_CORE_INCREMENTAL_H_
#define LRPDB_CORE_INCREMENTAL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/statusor.h"
#include "src/core/evaluator.h"
#include "src/core/provenance.h"
#include "src/gdb/database.h"

namespace lrpdb {

// One fact to add or retract: a relation name plus an exact generalized
// tuple (data constants already interned through the target database).
struct FactUpdate {
  std::string relation;
  GeneralizedTuple tuple;
};

// Owns a materialized model over an extensional database and maintains it
// under AddFacts / RetractFacts batches without refixpointing.
//
// The database is borrowed and mutated in place (EDB inserts, tombstones
// and CompactRetracted's erasures); program and database must outlive the
// evaluator. Not thread-safe: updates are serialized by the caller, like
// every store mutation.
class IncrementalEvaluator {
 public:
  // `options` is normalized for maintenance: compact_results is forced off
  // (compaction renumbers the entry ids provenance and resumption address)
  // and options.provenance is replaced by an internally owned log.
  IncrementalEvaluator(const Program& program, Database* db,
                       EvaluationOptions options = EvaluationOptions());

  // Computes the initial fixpoint. Must be called (successfully) before
  // any update; later calls are errors.
  [[nodiscard]] Status Initialize();
  bool initialized() const { return model_.has_value(); }

  // Applies a batch of fact insertions and brings the model back to the
  // fixpoint of the enlarged database. Duplicate facts (already contained
  // in the stored EDB) are absorbed and trigger no work.
  [[nodiscard]] Status AddFacts(const std::vector<FactUpdate>& batch);

  // Applies a batch of fact retractions (exact value match against live
  // EDB entries; unmatched facts count as eval.inc.retract_misses) and
  // brings the model back to the fixpoint of the shrunk database.
  [[nodiscard]] Status RetractFacts(const std::vector<FactUpdate>& batch);

  // Erases every tombstoned entry of the EDB and IDB stores
  // (TupleStore::EraseEntries), which renumbers the survivors densely in
  // their order, and rewrites the provenance log through the same remaps
  // (ProvenanceLog::Renumber). Afterwards every store has size() ==
  // live_size(). Entry ids handed out before the call are invalidated; the
  // model, its fingerprint and the live tuples' order are unchanged.
  // Returns the number of entries erased.
  size_t CompactRetracted();

  // The maintained model. CHECK-fails before a successful Initialize().
  const EvaluationResult& Result() const;
  const Database& db() const { return *db_; }
  ProvenanceLog* provenance() { return prov_.get(); }

  // True when the model is the exact fixpoint (updates resume); false
  // degrades every subsequent update to a full re-evaluation.
  bool at_fixpoint() const {
    return model_.has_value() && model_->reached_fixpoint;
  }

  // Canonical ground-window fingerprint of the model over [lo, hi): every
  // IDB relation's sorted, deduplicated ground tuples, rendered with
  // interned constant names. Two models with the same ground sets in the
  // window produce identical fingerprints regardless of stored form —
  // the semantic half of the differential gauntlet.
  std::string Fingerprint(int64_t lo, int64_t hi) const;

  // Exact stored-form dump of the model: relation name, live entry ids and
  // their tuples, in store order. Bit-identical across kernels and thread
  // counts for the same update history — the determinism half.
  std::string DumpStored() const;

 private:
  // Re-evaluates the whole updated database from scratch with a fresh
  // provenance log (the fallback path; bumps eval.inc.fallbacks).
  [[nodiscard]] Status FullRecompute();
  // Resets every EDB and IDB delta generation to empty so the next
  // AddFacts seeds exactly its own entries.
  void ClearDeltas();
  [[nodiscard]] Status ValidateBatch(const std::vector<FactUpdate>& batch) const;
  // Installs a fresh dependent-tracking provenance log into options_.
  void ResetProvenance();

  const Program& program_;
  Database* db_;
  EvaluationOptions options_;
  std::unique_ptr<ProvenanceLog> prov_;
  std::optional<EvaluationResult> model_;
  bool has_negation_ = false;
};

}  // namespace lrpdb

#endif  // LRPDB_CORE_INCREMENTAL_H_
