#include "src/gdb/generalized_tuple.h"

namespace lrpdb {

GeneralizedTuple::GeneralizedTuple(std::vector<Lrp> lrps,
                                   std::vector<DataValue> data, Dbm constraint)
    : lrps_(std::move(lrps)),
      data_(std::move(data)),
      constraint_(std::move(constraint)) {
  LRPDB_CHECK_EQ(constraint_.num_vars(), static_cast<int>(lrps_.size()))
      << "constraint DBM arity must match temporal arity";
}

GeneralizedTuple::GeneralizedTuple(TupleView view)
    : GeneralizedTuple(view.lrps().ToVector(), view.data().ToVector(),
                       Dbm(view.constraint())) {}

GeneralizedTuple GeneralizedTuple::Unconstrained(std::vector<Lrp> lrps,
                                                 std::vector<DataValue> data) {
  Dbm free(static_cast<int>(lrps.size()));
  return GeneralizedTuple(std::move(lrps), std::move(data), std::move(free));
}

bool TupleView::ContainsGround(const std::vector<int64_t>& times,
                               const std::vector<DataValue>& data) const {
  if (times.size() != static_cast<size_t>(temporal_arity_) ||
      !(this->data() == data)) {
    return false;
  }
  for (int i = 0; i < temporal_arity_; ++i) {
    if (!lrps_[i].Contains(times[i])) return false;
  }
  return constraint().ContainsPoint(times);
}

GeneralizedTuple TupleView::ToTuple() const { return GeneralizedTuple(*this); }

std::string TupleView::ToString(const Interner* interner) const {
  std::string s = "(";
  for (int i = 0; i < temporal_arity_; ++i) {
    if (i > 0) s += ", ";
    s += lrps_[i].ToString();
  }
  for (int i = 0; i < data_arity_; ++i) {
    if (temporal_arity_ > 0 || i > 0) s += ", ";
    if (interner != nullptr) {
      s += interner->NameOf(data_[i]);
    } else {
      s += '#';
      s += std::to_string(data_[i]);
    }
  }
  s += ")";
  std::string c = constraint().ToString();
  if (c != "true") {
    s += " with ";
    s += c;
  }
  return s;
}

}  // namespace lrpdb
