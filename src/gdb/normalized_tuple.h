// Residue-normalized generalized tuples: exact ground-set reasoning.
//
// A generalized tuple mixes congruences (ti in ai*n + bi) with difference
// bounds over the actual time values; neither alone decides emptiness or
// containment of the represented ground set. Normalization aligns every
// column to a common period L = lcm(ai) and fixes a residue vector
// r (ti == ri mod L), splitting the tuple into finitely many pieces. Within
// one piece, substituting ti = L*ni + ri turns every difference bound
// ti - tj <= c into the *exact* quotient bound ni - nj <= floor((c-ri+rj)/L),
// so the piece's ground set is isomorphic to the integer solution set of a
// DBM. Emptiness, containment, equality, difference and projection of ground
// sets thereby reduce to exact DBM operations.
#ifndef LRPDB_GDB_NORMALIZED_TUPLE_H_
#define LRPDB_GDB_NORMALIZED_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/schema.h"

namespace lrpdb {

class ExecContext;  // src/common/exec_context.h

// Budgets for normalization. Aligning columns with many distinct coprime
// periods multiplies both the common period and the number of residue
// pieces; callers get kResourceExhausted instead of a blow-up.
struct NormalizeLimits {
  int64_t max_period = int64_t{1} << 40;
  int64_t max_pieces = 1 << 16;
  // Optional execution governance (deadline / budgets / cancellation; see
  // src/common/exec_context.h). Limits travel through every algebra
  // operator, TupleStore::Insert, and Normalize, so a non-null context here
  // is polled from all of them. Not owned; must outlive the evaluation.
  ExecContext* exec = nullptr;
};

// One residue piece: data constants, common period L, residue vector, and
// the quotient DBM over the ni. Always satisfiable (empty pieces are
// filtered at creation).
class NormalizedTuple {
 public:
  NormalizedTuple(int64_t common_period, std::vector<int64_t> residues,
                  std::vector<DataValue> data, Dbm quotient);

  // Splits `tuple` into satisfiable residue pieces. The union of the pieces'
  // ground sets equals the tuple's ground set, and distinct pieces are
  // disjoint.
  [[nodiscard]] static StatusOr<std::vector<NormalizedTuple>> Normalize(
      const GeneralizedTuple& tuple,
      const NormalizeLimits& limits = NormalizeLimits());

  int64_t common_period() const { return common_period_; }
  const std::vector<int64_t>& residues() const { return residues_; }
  const std::vector<DataValue>& data() const { return data_; }
  const Dbm& quotient() const { return quotient_; }
  int temporal_arity() const { return static_cast<int>(residues_.size()); }

  // Refines this piece to period `target` (a positive multiple of
  // common_period()), splitting into (target/L)^m sub-pieces -- exact.
  [[nodiscard]] StatusOr<std::vector<NormalizedTuple>> AlignTo(
      int64_t target, const NormalizeLimits& limits = NormalizeLimits()) const;

  // True iff the piece's ground set contains the point.
  bool ContainsGround(const std::vector<int64_t>& times,
                      const std::vector<DataValue>& data) const;

  // True iff pieces are directly comparable: same period, residues and data.
  bool SameClassAs(const NormalizedTuple& other) const {
    return common_period_ == other.common_period_ &&
           residues_ == other.residues_ && data_ == other.data_;
  }

  // Ground-set containment within the same class (CHECKs SameClassAs).
  bool ContainedIn(const NormalizedTuple& other) const;

  // Converts back to a user-facing generalized tuple with column lrps
  // L*n + ri and the tightest t-space difference bounds.
  GeneralizedTuple ToGeneralizedTuple() const;

  // The ground-set projection onto the given temporal columns (0-based,
  // in order) -- exact, since quotient variables range over all of Z.
  // Data columns are all kept.
  NormalizedTuple ProjectTemporal(const std::vector<int>& keep) const;

  std::string ToString() const;

 private:
  int64_t common_period_;           // L > 0.
  std::vector<int64_t> residues_;   // ri in [0, L), one per temporal column.
  std::vector<DataValue> data_;
  Dbm quotient_;                    // Over ni; satisfiable by construction.
};

// --- Set-level operations on unions of pieces ---

// Ground-set difference: pieces covering exactly union(a) \ union(b).
// All pieces are aligned to a common period internally.
[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> SubtractPieces(
    const std::vector<NormalizedTuple>& a,
    const std::vector<NormalizedTuple>& b,
    const NormalizeLimits& limits = NormalizeLimits());

// True iff union(a) is a subset of union(b), decided exactly.
[[nodiscard]] StatusOr<bool> PiecesContainedIn(
    const std::vector<NormalizedTuple>& a,
    const std::vector<NormalizedTuple>& b,
    const NormalizeLimits& limits = NormalizeLimits());

// Convenience: exact emptiness of a generalized tuple's ground set.
[[nodiscard]] StatusOr<bool> GroundSetEmpty(const GeneralizedTuple& tuple,
                              const NormalizeLimits& limits =
                                  NormalizeLimits());

// Convenience: exact containment ground(a) subset-of ground(b1) u ... u
// ground(bk) for generalized tuples of identical arities.
[[nodiscard]] StatusOr<bool> GroundTupleContainedIn(
    const GeneralizedTuple& a, const std::vector<GeneralizedTuple>& bs,
    const NormalizeLimits& limits = NormalizeLimits());

}  // namespace lrpdb

#endif  // LRPDB_GDB_NORMALIZED_TUPLE_H_
