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
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/schema.h"

namespace lrpdb {

// Caps on normalization. Aligning columns with many distinct coprime
// periods multiplies both the common period and the number of residue
// pieces (paper, Section 2.1); past either cap the operation returns
// kResourceExhausted instead of blowing up. Execution governance (deadline,
// budgets, cancellation) is not a parameter: normalization polls and
// charges ExecContext::Current(), which the engine's entry points install
// (src/common/exec_context.h).
inline constexpr int64_t kMaxCommonPeriod = int64_t{1} << 40;
inline constexpr int64_t kMaxResiduePieces = int64_t{1} << 16;

// The residue-piece enumeration behind every normalization. For a tuple's
// columns and constraint it computes the common period L, derives each
// column tied by a tight equality to a constant or an earlier column from
// that anchor's residue, walks the odometer over the other columns'
// residues, and builds one quotient DBM per combination; each satisfiable
// piece goes to a visitor, which reads it in place. The scratch (the
// closed t-space DBM, the quotient DBM, the residue and odometer vectors)
// is kept between calls, so a caller enumerating many tuples with one
// enumerator allocates nothing once the scratch has reached its largest
// arity. Polls ExecContext::Current() once per residue combination.
class PieceEnumerator {
 public:
  // One satisfiable piece, borrowed from the enumerator's scratch: valid
  // only while the visitor runs.
  struct Piece {
    int64_t period;                     // L.
    std::span<const int64_t> residues;  // ri in [0, L), one per column.
    const Dbm& quotient;                // Over the ni; closed, satisfiable.
  };

  // Calls visit(const Piece&) for each satisfiable residue piece of the
  // tuple with columns `lrps` and constraint `constraint` (closed or not;
  // a closed one is not closed again), in odometer order of the residue
  // vectors. The pieces' ground sets are disjoint and their union is the
  // tuple's.
  template <typename Visit>
  [[nodiscard]] Status ForEachPiece(ColumnSpan<Lrp> lrps,
                                    const Dbm& constraint, Visit&& visit) {
    return Enumerate(lrps, constraint, &Call<Visit>, &visit);
  }

 private:
  friend class NormalizedTuple;  // AlignTo walks its own residue columns.

  // The residues a column may take modulo the walk's period, ascending:
  // base + k * step for k in [0, count), with base < step.
  struct ResidueColumn {
    int64_t base = 0;
    int64_t step = 1;
    int64_t count = 1;
  };
  // A tight equality of the closed t-space DBM pinning a column to an
  // earlier column (ti = t_column + offset) or, with column == -1, to a
  // constant (ti == offset).
  struct Anchor {
    bool anchored = false;
    int column = -1;
    int64_t offset = 0;
  };

  using VisitFn = void (*)(void* visit, const Piece& piece);
  template <typename Visit>
  static void Call(void* visit, const Piece& piece) {
    (*static_cast<std::remove_reference_t<Visit>*>(visit))(piece);
  }

  // Aligns `lrps` to their common period and walks them.
  [[nodiscard]] Status Enumerate(ColumnSpan<Lrp> lrps, const Dbm& constraint,
                                 VisitFn visit, void* context);
  // Walks columns_ at `period` under the t-space DBM `t_dbm`.
  [[nodiscard]] Status Walk(const Dbm& t_dbm, int64_t period, VisitFn visit,
                            void* context);

  std::vector<ResidueColumn> columns_;
  std::vector<Anchor> anchors_;
  std::vector<int64_t> residues_;
  std::vector<int64_t> index_;
  Dbm closed_{0};
  Dbm quotient_{0};
};

// One residue piece: data constants, common period L, residue vector, and
// the quotient DBM over the ni. Always satisfiable (empty pieces are
// filtered at creation).
class NormalizedTuple {
 public:
  NormalizedTuple(int64_t common_period, std::vector<int64_t> residues,
                  std::vector<DataValue> data, Dbm quotient);

  // Splits `tuple` into satisfiable residue pieces (PieceEnumerator). The
  // union of the pieces' ground sets equals the tuple's ground set, and
  // distinct pieces are disjoint.
  [[nodiscard]] static StatusOr<std::vector<NormalizedTuple>> Normalize(
      const GeneralizedTuple& tuple);
  // The same, for a borrowed tuple (a TupleStore row).
  [[nodiscard]] static StatusOr<std::vector<NormalizedTuple>> Normalize(
      TupleView tuple);
  // The same, over a tuple's columns and a constraint held apart from them
  // (a join binding's, or a caller's scratch copy); a constraint already
  // closed is not closed again.
  [[nodiscard]] static StatusOr<std::vector<NormalizedTuple>> Normalize(
      ColumnSpan<Lrp> lrps, ColumnSpan<DataValue> data, const Dbm& constraint);

  int64_t common_period() const { return common_period_; }
  const std::vector<int64_t>& residues() const { return residues_; }
  const std::vector<DataValue>& data() const { return data_; }
  const Dbm& quotient() const { return quotient_; }
  int temporal_arity() const { return static_cast<int>(residues_.size()); }

  // Refines this piece to period `target` (a positive multiple of
  // common_period()), splitting into (target/L)^m sub-pieces -- exact.
  [[nodiscard]] StatusOr<std::vector<NormalizedTuple>> AlignTo(
      int64_t target) const;

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

// Appends `tuple`'s residue pieces (NormalizedTuple::Normalize) to `out`,
// which collects a union of tuples for the operations below.
[[nodiscard]] Status AppendNormalized(TupleView tuple,
                                      std::vector<NormalizedTuple>* out);

// Ground-set difference: pieces covering exactly union(a) \ union(b).
// All pieces are aligned to a common period internally.
[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> SubtractPieces(
    const std::vector<NormalizedTuple>& a,
    const std::vector<NormalizedTuple>& b);

// True iff union(a) is a subset of union(b), decided exactly.
[[nodiscard]] StatusOr<bool> PiecesContainedIn(
    const std::vector<NormalizedTuple>& a,
    const std::vector<NormalizedTuple>& b);

// Convenience: exact emptiness of a generalized tuple's ground set.
[[nodiscard]] StatusOr<bool> GroundSetEmpty(const GeneralizedTuple& tuple);

}  // namespace lrpdb

#endif  // LRPDB_GDB_NORMALIZED_TUPLE_H_
