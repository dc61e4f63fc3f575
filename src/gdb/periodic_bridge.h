// Conversions between the two data representations the paper proves
// interchangeable (Section 3.1): eventually periodic sets of naturals (the
// data expressiveness of Datalog1S / Templog) and single-temporal-column
// generalized relations with linear repeating points (the [KSW90] side).
#ifndef LRPDB_GDB_PERIODIC_BRIDGE_H_
#define LRPDB_GDB_PERIODIC_BRIDGE_H_

#include "src/common/statusor.h"
#include "src/gdb/generalized_relation.h"
#include "src/lrp/periodic_set.h"

namespace lrpdb {

// The generalized relation over one temporal column (data arity 0) whose
// ground set is exactly `set`: one pinned tuple per prefix member and one
// lrp tuple (period = set.period(), constrained to T >= offset) per tail
// residue.
[[nodiscard]] StatusOr<GeneralizedRelation> ToGeneralizedRelation(
    const EventuallyPeriodicSet& set);

// The eventually periodic set {t >= 0 : (t) in ground(relation)} of a
// relation with one temporal column and no data columns. Always succeeds
// for such relations when restricted to the naturals: the ground set of a
// generalized relation is eventually periodic with period dividing the lcm
// of the stored periods and offset bounded by the largest absolute DBM
// bound.
[[nodiscard]] StatusOr<EventuallyPeriodicSet> ToEventuallyPeriodicSet(
    const GeneralizedRelation& relation,
    const NormalizeLimits& limits = NormalizeLimits());

}  // namespace lrpdb

#endif  // LRPDB_GDB_PERIODIC_BRIDGE_H_
