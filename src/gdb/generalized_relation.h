// Generalized relations: finite sets of generalized tuples, each finitely
// representing a possibly infinite set of ground tuples (paper, Section 2.1).
//
// Storage is delegated to the signature-indexed TupleStore (tuple_store.h);
// this class keeps the set-of-tuples API and the ground-set operations.
#ifndef LRPDB_GDB_GENERALIZED_RELATION_H_
#define LRPDB_GDB_GENERALIZED_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/normalized_tuple.h"
#include "src/gdb/schema.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// A set of generalized tuples of one schema. The represented ground set is
// the union of the members' ground sets.
class GeneralizedRelation {
 public:
  explicit GeneralizedRelation(RelationSchema schema) : store_(schema) {}

  const RelationSchema& schema() const { return store_.schema(); }
  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }
  const GeneralizedTuple& tuple(size_t i) const {
    return store_.tuple(static_cast<EntryId>(i));
  }

  // The residue pieces of tuple `i`, computed on first use and cached.
  // Normalization can blow the limits for tuples mixing many unconstrained
  // (period-1) columns with periodic ones, hence the Status.
  [[nodiscard]] StatusOr<const std::vector<NormalizedTuple>*> pieces(
      size_t i, const NormalizeLimits& limits = NormalizeLimits()) const {
    return store_.pieces(static_cast<EntryId>(i), limits);
  }

  // Inserts `tuple` unless its ground set is empty or already contained in
  // the union of the stored tuples with the same *free extension* (lrp
  // vector + data constants) -- exactly the comparison that constraint
  // safety (paper, Section 4.3) prescribes, and exactly the store's
  // signature bucket. Containment across different free extensions is
  // deliberately not checked: it would require aligning unrelated periods
  // to their lcm, which explodes for coprime periods, and a tuple kept
  // redundantly is subsumed on its next re-derivation anyway. Returns
  // false iff the tuple was dropped (empty or subsumed).
  [[nodiscard]] StatusOr<bool> InsertIfNew(GeneralizedTuple tuple,
                             const NormalizeLimits& limits =
                                 NormalizeLimits()) {
    LRPDB_ASSIGN_OR_RETURN(InsertOutcome outcome,
                           store_.Insert(std::move(tuple), limits));
    return outcome.inserted;
  }

  // Inserts after a cheap satisfiability check of the constraint DBM only;
  // tuples whose ground set is empty purely through lrp-residue conflicts
  // may be stored (they are harmless redundancy -- every membership or
  // set-level operation treats them as empty). Returns false iff dropped.
  [[nodiscard]] StatusOr<bool> InsertUnlessEmpty(GeneralizedTuple tuple) {
    return store_.InsertUnlessEmpty(std::move(tuple));
  }

  bool ContainsGround(const std::vector<int64_t>& times,
                      const std::vector<DataValue>& data) const;

  // All ground tuples whose time values all lie in [lo, hi), sorted and
  // deduplicated. Intended for tests and the ground baseline; cost is
  // O(window^arity) per stored tuple.
  std::vector<GroundTuple> EnumerateGround(int64_t lo, int64_t hi) const;

  // Concatenation of all stored normalized pieces (cached per tuple).
  [[nodiscard]] StatusOr<std::vector<NormalizedTuple>> AllPieces(
      const NormalizeLimits& limits = NormalizeLimits()) const;

  std::string ToString(const Interner* interner = nullptr) const {
    return store_.ToString(interner);
  }

  // The underlying indexed store (signature interning, join probes, delta
  // generations, counters). The evaluator drives these directly.
  const TupleStore& store() const { return store_; }
  TupleStore& mutable_store() { return store_; }

 private:
  TupleStore store_;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_GENERALIZED_RELATION_H_
