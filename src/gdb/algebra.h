// The non-conjunctive part of the KSW90 algebra on generalized relations
// (paper, Sections 2.1 and 4.3): union, difference and complement, with the
// data universe and active domain a complement ranges over. Selection,
// shift, join and projection -- the operators [KSW90] notes are computable
// in PTIME on this representation -- are one clause kernel
// (ApplyClauseBatch, src/core/clause_plan.h), which the evaluators and the
// first-order query evaluator (src/fo/fo.h) share; benchmark
// bench_e3_algebra_ptime times them as FO queries.
#ifndef LRPDB_GDB_ALGEBRA_H_
#define LRPDB_GDB_ALGEBRA_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/database.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// Ground-set union of two relations with identical schemas (with
// containment-based deduplication).
[[nodiscard]] StatusOr<GeneralizedRelation> Union(
    const GeneralizedRelation& a, const GeneralizedRelation& b);

// Ground-set difference a \ b of two relations with identical schemas.
// Exact (residue-aligned DBM subtraction).
[[nodiscard]] StatusOr<GeneralizedRelation> Difference(
    const GeneralizedRelation& a, const GeneralizedRelation& b);

// The active data domain: every data constant stored in `db`'s relations
// and in `extra_relations` (when given), plus `constants`; sorted and
// distinct. The evaluator passes the program's constants, the FO evaluator
// the query's and its caller's.
std::vector<DataValue> ActiveDomain(
    const Database& db, std::set<DataValue> constants,
    const std::map<std::string, GeneralizedRelation>* extra_relations =
        nullptr);

// Every data row of `arity` columns over `domain`, the last column varying
// fastest: the data universe a complement ranges over. One empty row when
// `arity` is 0, none when `domain` is empty. A universe of more than 65,536
// rows is refused with kResourceExhausted before any row is built. Polls
// ExecContext::Current() once per row.
[[nodiscard]] StatusOr<std::vector<std::vector<DataValue>>> DataUniverse(
    const std::vector<DataValue>& domain, int arity);

// The complement of `r`'s ground set within the universe
// (all time vectors) x (the given data universe rows). Each row of
// `data_universe` is one data-constant vector of the schema's data arity.
[[nodiscard]] StatusOr<GeneralizedRelation> Complement(
    const GeneralizedRelation& r,
    const std::vector<std::vector<DataValue>>& data_universe);

// Merges tuples that differ only in one temporal column's lrp offset when
// (a) their offsets tile a full coarser congruence class (period p' dividing
// p) and (b) the union really is the single coarser tuple: the candidate
// carries the loosest DBM common to the members, and the merge is kept only
// when the candidate's pieces are contained in the members' pieces.
// Residue-exact difference and complement split relations into one tuple
// per residue class; this pass undoes the splitting wherever the union is
// exact, which keeps closed forms near their minimal size. The ground set
// is unchanged. Merges repeat, column by column, until a sweep over every
// column merges nothing, so a merged tuple may itself be folded into a
// coarser one. Returns the inputs no merge consumed, in input order, then
// the final merged tuples, in the order the merges happened.
[[nodiscard]] StatusOr<std::vector<GeneralizedTuple>> CoalesceTuples(
    std::vector<GeneralizedTuple> tuples);

// True iff the two relations represent the same ground set.
[[nodiscard]] StatusOr<bool> SameGroundSet(const GeneralizedRelation& a,
                             const GeneralizedRelation& b);

}  // namespace lrpdb

#endif  // LRPDB_GDB_ALGEBRA_H_
