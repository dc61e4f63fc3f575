#include "src/gdb/periodic_bridge.h"

#include <algorithm>

#include "src/common/failpoint.h"
#include "src/common/math_util.h"
#include "src/gdb/normalized_tuple.h"

namespace lrpdb {

GeneralizedRelation ToGeneralizedRelation(
    const EventuallyPeriodicSet& set) {
  GeneralizedRelation relation({1, 0});
  // Prefix members: pinned points (the lrp n with T = t, per the paper's
  // convention for constants).
  for (int64_t t = 0; t < set.offset(); ++t) {
    if (!set.Contains(t)) continue;
    Dbm pin(1);
    pin.AddEquality(1, t);
    relation.InsertUnlessEmpty(GeneralizedTuple({Lrp()}, {}, pin));
  }
  // Tail residues: lrps restricted to T >= offset.
  for (int64_t r = 0; r < set.period(); ++r) {
    int64_t representative = set.offset() + r;
    if (!set.Contains(representative)) continue;
    Dbm from_offset(1);
    from_offset.AddLowerBound(1, set.offset());
    relation.InsertUnlessEmpty(GeneralizedTuple(
        {Lrp(set.period(), representative)}, {}, from_offset));
  }
  return relation;
}

[[nodiscard]] StatusOr<EventuallyPeriodicSet> ToEventuallyPeriodicSet(
    const GeneralizedRelation& relation) {
  LRPDB_FAILPOINT("periodic.to_eventually_periodic");
  if (relation.schema().temporal_arity != 1 ||
      relation.schema().data_arity != 0) {
    return InvalidArgumentError(
        "ToEventuallyPeriodicSet requires one temporal column and no data "
        "columns");
  }
  // Beyond every tuple's absolute bounds, membership repeats with the lcm
  // of the stored periods.
  int64_t period = 1;
  int64_t offset = 0;
  for (EntryId id : relation.live_ids()) {
    const TupleView tuple = relation.tuple(id);
    period = Lcm(period, tuple.lrp(0).period());
    if (period > kMaxCommonPeriod) {
      return ResourceExhaustedError("lcm of periods exceeds limit");
    }
    Dbm closed = tuple.constraint();
    closed.Close();
    if (!closed.IsSatisfiable()) continue;
    Bound upper = closed.bound(1, 0);
    Bound lower = closed.bound(0, 1);
    if (!upper.is_infinite()) {
      offset = std::max(offset, upper.value() + 1);
    }
    if (!lower.is_infinite()) {
      offset = std::max(offset, -lower.value() + 1);
    }
  }
  offset = std::max<int64_t>(offset, 0);
  std::vector<bool> prefix(offset);
  for (int64_t t = 0; t < offset; ++t) {
    prefix[t] = relation.ContainsGround({t}, {});
  }
  std::vector<bool> tail(period);
  for (int64_t r = 0; r < period; ++r) {
    tail[r] = relation.ContainsGround({offset + r}, {});
  }
  return EventuallyPeriodicSet::Create(std::move(prefix), std::move(tail));
}

}  // namespace lrpdb
