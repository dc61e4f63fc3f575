#include "src/core/incremental.h"

#include <deque>
#include <sstream>
#include <utility>
#include <variant>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace lrpdb {

IncrementalEvaluator::IncrementalEvaluator(const Program& program,
                                           Database* db,
                                           EvaluationOptions options)
    : program_(program), db_(db), options_(std::move(options)) {}

void IncrementalEvaluator::ResetProvenance() {
  prov_ = std::make_unique<ProvenanceLog>();
  options_.provenance = prov_.get();
}

void IncrementalEvaluator::ClearDeltas() {
  // AdvanceGeneration twice: the first call promotes any pending appends
  // into the delta, the second empties it ([size, size)). The next batch's
  // inserts then become exactly the next delta.
  for (const std::string& name : db_->RelationNames()) {
    StatusOr<GeneralizedRelation*> relation = db_->MutableRelation(name);
    if (!relation.ok()) continue;
    (*relation)->AdvanceGeneration();
    (*relation)->AdvanceGeneration();
  }
  if (!model_.has_value()) return;
  for (auto& [unused, relation] : model_->idb) {
    relation.AdvanceGeneration();
    relation.AdvanceGeneration();
  }
}

[[nodiscard]] Status IncrementalEvaluator::ValidateBatch(
    const std::vector<FactUpdate>& batch) const {
  LRPDB_FAILPOINT("incremental.validate_batch");
  for (const FactUpdate& update : batch) {
    StatusOr<RelationSchema> schema = db_->SchemaOf(update.relation);
    if (!schema.ok()) {
      return NotFoundError("incremental update targets undeclared relation '" +
                           update.relation + "'");
    }
    if (update.tuple.temporal_arity() != schema->temporal_arity ||
        update.tuple.data_arity() != schema->data_arity) {
      return InvalidArgumentError(
          "incremental update arity mismatch for relation '" +
          update.relation + "'");
    }
  }
  return OkStatus();
}

[[nodiscard]] Status IncrementalEvaluator::Initialize() {
  if (model_.has_value()) {
    return InvalidArgumentError("IncrementalEvaluator already initialized");
  }
  for (const Clause& clause : program_.clauses()) {
    for (const BodyAtom& atom : clause.body) {
      if (const auto* pred = std::get_if<PredicateAtom>(&atom)) {
        if (pred->negated) has_negation_ = true;
      }
    }
  }
  ResetProvenance();
  LRPDB_ASSIGN_OR_RETURN(EvaluationResult result,
                         Evaluate(program_, *db_, options_));
  model_ = std::move(result);
  ClearDeltas();
  if (model_->partial.tripped()) {
    return Status(model_->partial.trip, model_->partial.reason);
  }
  return OkStatus();
}

[[nodiscard]] Status IncrementalEvaluator::FullRecompute() {
  LRPDB_COUNTER_INC("eval.inc.fallbacks");
  // A fresh log: the old one's origins address entries of the model being
  // replaced. The new origins address the database's entries as they are
  // now, which hold until the next CompactRetracted renumbers them.
  ResetProvenance();
  LRPDB_ASSIGN_OR_RETURN(EvaluationResult result,
                         Evaluate(program_, *db_, options_));
  model_ = std::move(result);
  ClearDeltas();
  if (model_->partial.tripped()) {
    return Status(model_->partial.trip, model_->partial.reason);
  }
  return OkStatus();
}

[[nodiscard]] Status IncrementalEvaluator::AddFacts(
    const std::vector<FactUpdate>& batch) {
  LRPDB_FAILPOINT("incremental.add_facts");
  if (!model_.has_value()) {
    return InvalidArgumentError("IncrementalEvaluator not initialized");
  }
  LRPDB_RETURN_IF_ERROR(ValidateBatch(batch));
  LRPDB_COUNTER_INC("eval.inc.add_batches");
  LRPDB_COUNTER_ADD("eval.inc.add_facts",
                    static_cast<int64_t>(batch.size()));
  ExecContext* exec = options_.exec;
  // The update is an entry point: its inserts (normalization, DBM closure,
  // failpoints) reach the context through ExecContext::Current().
  ExecContext::ScopedCurrent scoped_exec(exec);
  // Exact inserts: duplicates and subsumed facts are absorbed by the
  // stores' containment test and never reach a delta, so a batch of
  // already-known facts resumes nothing.
  bool grew = false;
  for (const FactUpdate& update : batch) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation * relation,
                           db_->MutableRelation(update.relation));
    LRPDB_ASSIGN_OR_RETURN(InsertOutcome outcome,
                           relation->Insert(update.tuple));
    if (outcome.inserted) grew = true;
  }
  if (!grew) return OkStatus();
  if (has_negation_ || !model_->reached_fixpoint) return FullRecompute();
  // Promote exactly the new entries to the delta generation and resume the
  // semi-naive loop from the existing fixpoint.
  for (const std::string& name : db_->RelationNames()) {
    StatusOr<GeneralizedRelation*> relation = db_->MutableRelation(name);
    if (!relation.ok()) continue;
    (*relation)->AdvanceGeneration();
  }
  ResumeSeed seed;
  seed.idb = std::move(model_->idb);
  StatusOr<EvaluationResult> resumed =
      ResumeEvaluate(program_, *db_, options_, std::move(seed));
  if (!resumed.ok()) {
    // The seed (and with it the prior model) is gone; rebuild from the
    // database, which already holds the batch.
    LRPDB_RETURN_IF_ERROR(FullRecompute());
    return resumed.status();
  }
  model_ = std::move(*resumed);
  LRPDB_COUNTER_ADD("eval.inc.resume_rounds",
                    static_cast<int64_t>(model_->iterations));
  ClearDeltas();
  if (model_->partial.tripped()) {
    return Status(model_->partial.trip, model_->partial.reason);
  }
  return OkStatus();
}

[[nodiscard]] Status IncrementalEvaluator::RetractFacts(
    const std::vector<FactUpdate>& batch) {
  LRPDB_FAILPOINT("incremental.retract_facts");
  if (!model_.has_value()) {
    return InvalidArgumentError("IncrementalEvaluator not initialized");
  }
  LRPDB_RETURN_IF_ERROR(ValidateBatch(batch));
  LRPDB_COUNTER_INC("eval.inc.retract_batches");
  LRPDB_COUNTER_ADD("eval.inc.retract_facts",
                    static_cast<int64_t>(batch.size()));
  ExecContext* exec = options_.exec;
  ExecContext::ScopedCurrent scoped_exec(exec);
  // Tombstone the exact value matches among the live EDB entries. A fact
  // that was absorbed at insert time has no entry of its own and counts as
  // a miss — the stored model is the unit of retraction (header).
  std::vector<std::pair<std::string, EntryId>> retracted;
  for (const FactUpdate& update : batch) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation * relation,
                           db_->MutableRelation(update.relation));
    const std::vector<EntryId> matched = relation->TombstoneExact(update.tuple);
    for (EntryId id : matched) retracted.emplace_back(update.relation, id);
    if (matched.empty()) LRPDB_COUNTER_INC("eval.inc.retract_misses");
  }
  if (retracted.empty()) return OkStatus();
  if (has_negation_ || !model_->reached_fixpoint) {
    // Negation or a non-fixpoint model: the recorded parent edges cannot
    // drive DRed, so refixpoint the shrunk database.
    return FullRecompute();
  }
  // DRed over-delete: walk the reverse provenance edges forward from the
  // retracted entries and tombstone every transitive dependent. Each live
  // entry's origin is the derivation that inserted it, so every entry left
  // standing keeps live parents; an over-deleted entry that another
  // derivation reaches comes back in the re-derive below (DESIGN.md §13).
  LRPDB_FAILPOINT("incremental.over_delete");
  // Destructive phase: until the re-derive completes, the model is only a
  // sound subset of the fixpoint. Any early error exit leaves it marked so
  // the next update falls back to a full recompute.
  model_->reached_fixpoint = false;
  std::set<std::string> affected;
  std::deque<ProvRef> queue;
  std::set<ProvRef> visited;
  for (const auto& [name, entry] : retracted) {
    std::optional<ProvRelationId> rel = prov_->FindRelation(name);
    if (!rel.has_value()) continue;  // Never joined by any clause body.
    queue.push_back(ProvRef{*rel, entry});
  }
  int64_t over_deleted = 0;
  while (!queue.empty()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    ProvRef ref = queue.front();
    queue.pop_front();
    for (ProvRef dep : prov_->Dependents(ref)) {
      if (!visited.insert(dep).second) continue;
      const std::string& name = prov_->RelationName(dep.relation);
      auto it = model_->idb.find(name);
      if (it == model_->idb.end()) continue;
      GeneralizedRelation& relation = it->second;
      // A dependent dead from an earlier retraction was already expanded
      // when it died; its stale reverse edge carries no new work.
      if (!relation.is_live(dep.entry)) continue;
      relation.Tombstone(dep.entry);
      prov_->Forget(dep);
      affected.insert(name);
      ++over_deleted;
      queue.push_back(dep);
    }
    // Every dependent listed for `ref` is dead now, and a dead entry is
    // never revived, so the list carries no further work.
    prov_->ForgetDependents(ref);
  }
  LRPDB_COUNTER_ADD("eval.inc.over_deleted", over_deleted);
  // Re-derive: clauses heading an affected relation re-apply in full, so
  // every over-deleted tuple with a surviving alternative derivation comes
  // back; insertions seed deltas and the resumed loop propagates them.
  LRPDB_FAILPOINT("incremental.rederive");
  ResumeSeed seed;
  seed.idb = std::move(model_->idb);
  seed.rederive_heads = std::move(affected);
  StatusOr<EvaluationResult> resumed =
      ResumeEvaluate(program_, *db_, options_, std::move(seed));
  if (!resumed.ok()) {
    LRPDB_RETURN_IF_ERROR(FullRecompute());
    return resumed.status();
  }
  model_ = std::move(*resumed);
  LRPDB_COUNTER_ADD("eval.inc.rederived", model_->profile.TotalInserted());
  LRPDB_COUNTER_ADD("eval.inc.resume_rounds",
                    static_cast<int64_t>(model_->iterations));
  ClearDeltas();
  if (model_->partial.tripped()) {
    return Status(model_->partial.trip, model_->partial.reason);
  }
  return OkStatus();
}

size_t IncrementalEvaluator::CompactRetracted() {
  // remaps[name]: how erasing `name`'s tombstoned entries renumbered it.
  std::map<std::string, std::vector<EntryId>> remaps;
  size_t erased = 0;
  auto erase_dead = [&](const std::string& name,
                        GeneralizedRelation* relation) {
    if (!relation->has_tombstones()) return;
    std::vector<EntryId> dead;
    dead.reserve(relation->size() - relation->live_size());
    for (EntryId id = 0; id < relation->size(); ++id) {
      if (!relation->is_live(id)) dead.push_back(id);
    }
    erased += dead.size();
    remaps.emplace(name, relation->EraseEntries(dead));
  };
  for (const std::string& name : db_->RelationNames()) {
    StatusOr<GeneralizedRelation*> relation = db_->MutableRelation(name);
    if (relation.ok()) erase_dead(name, *relation);
  }
  if (model_.has_value()) {
    for (auto& [name, relation] : model_->idb) {
      erase_dead(name, &relation);
    }
  }
  // EDB and IDB names are disjoint, so one remap per name is unambiguous.
  if (prov_ != nullptr && !remaps.empty()) prov_->Renumber(remaps);
  return erased;
}

const EvaluationResult& IncrementalEvaluator::Result() const {
  LRPDB_CHECK(model_.has_value())
      << "IncrementalEvaluator::Initialize() has not succeeded";
  return *model_;
}

std::string IncrementalEvaluator::Fingerprint(int64_t lo, int64_t hi) const {
  LRPDB_CHECK(model_.has_value());
  std::ostringstream out;
  const Interner& interner = db_->interner();
  auto render = [&](const std::string& name,
                    const GeneralizedRelation& relation) {
    out << name << ":\n";
    for (const GroundTuple& g : relation.EnumerateGround(lo, hi)) {
      out << "  (";
      for (size_t i = 0; i < g.times.size(); ++i) {
        if (i > 0) out << ",";
        out << g.times[i];
      }
      for (size_t i = 0; i < g.data.size(); ++i) {
        if (i > 0 || !g.times.empty()) out << ",";
        out << interner.NameOf(g.data[i]);
      }
      out << ")\n";
    }
  };
  // RelationNames() and the idb map are both sorted by name, so the
  // fingerprint is canonical.
  for (const std::string& name : db_->RelationNames()) {
    StatusOr<const GeneralizedRelation*> relation = db_->Relation(name);
    if (relation.ok()) render("edb " + name, **relation);
  }
  for (const auto& [name, relation] : model_->idb) {
    render("idb " + name, relation);
  }
  return out.str();
}

std::string IncrementalEvaluator::DumpStored() const {
  LRPDB_CHECK(model_.has_value());
  std::ostringstream out;
  const Interner& interner = db_->interner();
  for (const auto& [name, relation] : model_->idb) {
    out << name << ":\n";
    for (EntryId id : relation.live_ids()) {
      out << "  #" << id << " " << relation.tuple(id).ToString(&interner)
          << "\n";
    }
  }
  return out.str();
}

}  // namespace lrpdb
