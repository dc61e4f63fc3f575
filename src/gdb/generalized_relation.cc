#include "src/gdb/generalized_relation.h"

#include <algorithm>

namespace lrpdb {

bool GeneralizedRelation::ContainsGround(
    const std::vector<int64_t>& times,
    const std::vector<DataValue>& data) const {
  for (EntryId id : store_.live_ids()) {
    if (store_.tuple(id).ContainsGround(times, data)) {
      return true;
    }
  }
  return false;
}

std::vector<GroundTuple> GeneralizedRelation::EnumerateGround(
    int64_t lo, int64_t hi) const {
  // Column-by-column enumeration guided by the closed constraint instead of
  // a cross product of per-column candidates with a per-point containment
  // check: closing the DBM once per tuple makes every pairwise bound tight,
  // so at depth i the feasible values are exactly the lrp points inside the
  // interval implied by the window, the absolute bounds, and the already
  // fixed columns. Every emitted point satisfies the constraint by
  // construction, and every satisfying point survives the propagation
  // (closure yields the tightest implied bounds), so the output set is
  // identical to the old per-point filter at a fraction of the cost.
  std::vector<GroundTuple> out;
  int m = schema().temporal_arity;
  for (EntryId id : store_.live_ids()) {
    const TupleView t = store_.tuple(id);
    Dbm closed = t.constraint();
    closed.Close();
    if (!closed.IsSatisfiable()) continue;
    std::vector<int64_t> times(m, 0);
    auto emit = [&](auto&& self, int i) -> void {
      if (i == m) {
        out.push_back({times, t.data().ToVector()});
        return;
      }
      int64_t lower = lo;
      int64_t upper = hi - 1;
      // Absolute bounds through the zero variable, then difference bounds
      // against every fixed column (DBM variables are 1-based).
      Bound up = closed.bound(i + 1, 0);
      if (!up.is_infinite()) upper = std::min(upper, up.value());
      Bound down = closed.bound(0, i + 1);
      if (!down.is_infinite()) lower = std::max(lower, -down.value());
      for (int j = 0; j < i; ++j) {
        Bound diff_up = closed.bound(i + 1, j + 1);  // xi - xj <= c
        if (!diff_up.is_infinite()) {
          upper = std::min(upper, times[j] + diff_up.value());
        }
        Bound diff_down = closed.bound(j + 1, i + 1);  // xj - xi <= c
        if (!diff_down.is_infinite()) {
          lower = std::max(lower, times[j] - diff_down.value());
        }
      }
      for (int64_t v = t.lrp(i).NextAtLeast(lower); v <= upper;
           v += t.lrp(i).period()) {
        times[i] = v;
        self(self, i + 1);
      }
    };
    emit(emit, 0);
  }
  // Distinct generalized tuples can ground to the same point; match the old
  // std::set semantics (sorted, deduplicated).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace lrpdb
