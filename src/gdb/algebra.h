// The KSW90 algebra on generalized relations (paper, Sections 2.1 and 4.3):
// intersection, union, difference, cartesian product, equality join,
// constraint selection, projection, and the +1/-1 column shift. The paper
// notes that intersection, join and projection are computable in PTIME on
// this representation; benchmark bench_e3_algebra_ptime measures this.
#ifndef LRPDB_GDB_ALGEBRA_H_
#define LRPDB_GDB_ALGEBRA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/generalized_relation.h"

namespace lrpdb {

// Ground-set intersection of two relations with identical schemas.
[[nodiscard]] StatusOr<GeneralizedRelation> Intersect(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const NormalizeLimits& limits = NormalizeLimits());

// Ground-set union of two relations with identical schemas (with
// containment-based deduplication).
[[nodiscard]] StatusOr<GeneralizedRelation> Union(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const NormalizeLimits& limits = NormalizeLimits());

// Ground-set difference a \ b of two relations with identical schemas.
// Exact (residue-aligned DBM subtraction).
[[nodiscard]] StatusOr<GeneralizedRelation> Difference(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const NormalizeLimits& limits = NormalizeLimits());

// Cartesian product: temporal columns of `a` then of `b`, data columns of
// `a` then of `b`.
[[nodiscard]] StatusOr<GeneralizedRelation> CartesianProduct(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const NormalizeLimits& limits = NormalizeLimits());

// Equality join: cartesian product restricted by ta_i == tb_j + c for each
// (i, j, c) in `temporal_eqs` (column indices into a and b respectively) and
// da_i == db_j for each (i, j) in `data_eqs`. Columns are not merged; use
// Project afterwards.
struct TemporalEquality {
  int left_column;
  int right_column;
  int64_t offset;  // left == right + offset.
};
[[nodiscard]] StatusOr<GeneralizedRelation> JoinOnEqualities(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<TemporalEquality>& temporal_eqs,
    const std::vector<std::pair<int, int>>& data_eqs,
    const NormalizeLimits& limits = NormalizeLimits());

// Conjoins `constraint` (a DBM over the relation's temporal columns) into
// every tuple, dropping tuples that become empty.
[[nodiscard]] StatusOr<GeneralizedRelation> SelectConstraint(
    const GeneralizedRelation& r, const Dbm& constraint,
    const NormalizeLimits& limits = NormalizeLimits());

// Projects onto the given temporal and data columns (0-based, in the order
// given). Temporal projection is exact (performed on normalized pieces).
[[nodiscard]] StatusOr<GeneralizedRelation> Project(
    const GeneralizedRelation& r, const std::vector<int>& temporal_columns,
    const std::vector<int>& data_positions,
    const NormalizeLimits& limits = NormalizeLimits());

// Keeps only tuples whose data column `column` equals `value`. Errors
// (column out of range, insertion failure) propagate instead of aborting.
[[nodiscard]] StatusOr<GeneralizedRelation> SelectDataEquals(
    const GeneralizedRelation& r, int column, DataValue value);

// Keeps only tuples whose data columns i and j are equal.
[[nodiscard]] StatusOr<GeneralizedRelation> SelectDataColumnsEqual(
    const GeneralizedRelation& r, int i, int j);

// Translates temporal column `column` by c (c applications of +1, or of -1
// when c is negative).
[[nodiscard]] StatusOr<GeneralizedRelation> ShiftColumn(
    const GeneralizedRelation& r, int column, int64_t c,
    const NormalizeLimits& limits = NormalizeLimits());

// The complement of `r`'s ground set within the universe
// (all time vectors) x (the given data universe rows). Each row of
// `data_universe` is one data-constant vector of the schema's data arity.
[[nodiscard]] StatusOr<GeneralizedRelation> Complement(
    const GeneralizedRelation& r,
    const std::vector<std::vector<DataValue>>& data_universe,
    const NormalizeLimits& limits = NormalizeLimits());

// Merges tuples that differ only in one temporal column's lrp offset when
// (a) their offsets tile a full coarser congruence class (period p' dividing
// p) and (b) the union really is the single coarser tuple: the candidate
// carries the loosest DBM common to the members, and the merge is kept only
// when the candidate's pieces are contained in the members' pieces.
// Residue-exact projection and complement split relations into one tuple
// per residue class; this pass undoes the splitting wherever the union is
// exact, which keeps closed forms near their minimal size. The ground set
// is unchanged.
//
// The plan names what would change without touching the inputs: the
// positions of the inputs folded into merges (ascending) and the merged
// tuples, in the order the merges happened. Merges repeat, column by
// column, until a sweep over every column merges nothing, so a merged tuple
// may itself be folded into a coarser one; `merged` holds only the final
// ones. An empty plan means nothing merges.
struct CoalescePlan {
  std::vector<size_t> consumed;
  std::vector<GeneralizedTuple> merged;
};
[[nodiscard]] StatusOr<CoalescePlan> PlanCoalesce(
    const std::vector<const GeneralizedTuple*>& tuples,
    const NormalizeLimits& limits = NormalizeLimits());

// PlanCoalesce applied: the inputs no merge consumed, in input order, then
// the merged tuples.
[[nodiscard]] StatusOr<std::vector<GeneralizedTuple>> CoalesceTuples(
    std::vector<GeneralizedTuple> tuples,
    const NormalizeLimits& limits = NormalizeLimits());

// True iff the two relations represent the same ground set.
[[nodiscard]] StatusOr<bool> SameGroundSet(const GeneralizedRelation& a,
                             const GeneralizedRelation& b,
                             const NormalizeLimits& limits = NormalizeLimits());

}  // namespace lrpdb

#endif  // LRPDB_GDB_ALGEBRA_H_
