// Classical tuple-at-a-time bottom-up evaluation over a bounded time window.
//
// The paper's Section 4.3 motivates generalized-tuple evaluation by noting
// that computing with T_P on ground tuples is impossible when extensions are
// infinite. This baseline makes the comparison concrete: it materializes the
// extensional relations' ground tuples whose time values fall in [lo, hi),
// then runs ordinary semi-naive Datalog, discarding derived tuples that
// leave the window. It serves as (a) the correctness oracle for the
// generalized engine -- the paper's ground semantics, so their models must
// agree inside the window, up to window-boundary effects handled by the
// tests -- and (b) the baseline of benchmark E4, whose cost grows linearly
// with the window while the generalized engine's does not.
#ifndef LRPDB_CORE_GROUND_EVALUATOR_H_
#define LRPDB_CORE_GROUND_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/ast/ast.h"
#include "src/common/exec_context.h"
#include "src/common/statusor.h"
#include "src/gdb/database.h"

namespace lrpdb {

class ProvenanceLog;

struct GroundEvaluationOptions {
  int64_t window_lo = 0;
  int64_t window_hi = 1000;
  // Safety valve on total derived facts.
  int64_t max_facts = 10'000'000;
  // Optional execution governance (deadline / budgets / cancellation); not
  // owned, must outlive the evaluation. The join and head loops poll it,
  // and derived facts charge its tuple/byte budgets; a trip unwinds as that
  // context's governance Status (the window model is discarded — callers
  // needing degradation read ExecContext::partial() for the accounting).
  ExecContext* exec = nullptr;
  // Optional why-provenance recording (src/core/provenance.h): when
  // non-null, every derived ground fact records (clause index, positive
  // body atoms' fact indices, round). Parents referencing extensional
  // relations resolve against GroundEvaluationResult::edb, which is
  // returned precisely so recorded addresses outlive the evaluation. Not
  // owned; ignored under LRPDB_NO_PROVENANCE builds.
  ProvenanceLog* provenance = nullptr;
};

struct GroundEvaluationResult {
  // Ground extensions of the intensional predicates inside the window.
  // GroundFactStore (src/gdb/tuple_store.h) is the same append-only
  // delta-generation container the semi-naive loop runs on; it offers
  // set-style count()/begin()/end(), so readers treat it like a fact set.
  // Move-only, because the store is.
  std::map<std::string, GroundFactStore> idb;
  // The materialized window EDB the joins ran over. Returned (rather than
  // discarded) so provenance parents that reference extensional facts stay
  // resolvable by (relation name, fact index).
  std::map<std::string, GroundFactStore> edb;
  int iterations = 0;
  int64_t facts_derived = 0;
};

[[nodiscard]] StatusOr<GroundEvaluationResult> EvaluateGround(
    const Program& program, const Database& db,
    const GroundEvaluationOptions& options);

}  // namespace lrpdb

#endif  // LRPDB_CORE_GROUND_EVALUATOR_H_
