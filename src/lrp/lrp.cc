#include "src/lrp/lrp.h"

#include <string>

namespace lrpdb {

Lrp::Lrp(int64_t period, int64_t offset) {
  LRPDB_CHECK_NE(period, 0) << "lrp period must be non-zero (paper, Sec 2.1)";
  period_ = period < 0 ? -period : period;
  offset_ = FloorMod(offset, period_);
}

[[nodiscard]] StatusOr<Lrp> Lrp::Create(int64_t period, int64_t offset) {
  if (period == 0) {
    return InvalidArgumentError(
        "lrp period must be non-zero; represent the constant c as the lrp n "
        "with constraint T = c");
  }
  return Lrp(period, offset);
}

std::optional<Lrp> Lrp::Intersect(const Lrp& a, const Lrp& b) {
  // Solve t == a.offset (mod a.period) and t == b.offset (mod b.period).
  int64_t x = 0;
  int64_t y = 0;
  int64_t g = ExtendedGcd(a.period_, b.period_, &x, &y);
  int64_t diff = b.offset_ - a.offset_;
  if (diff % g != 0) return std::nullopt;
  int64_t lcm = a.period_ / g * b.period_;
  // t = a.offset + a.period * x * (diff / g) is one solution; reduce mod lcm.
  // Multiply modulo lcm to avoid overflow for large periods.
  int64_t step = diff / g % (lcm / a.period_);
  int64_t t = a.offset_ + a.period_ * FloorMod(x * step, lcm / a.period_);
  return Lrp(lcm, t);
}

std::string Lrp::ToString() const {
  if (period_ == 1 && offset_ == 0) return "n";
  std::string s;
  if (period_ != 1) s += std::to_string(period_);
  s += "n";
  if (offset_ != 0) {
    s += "+";
    s += std::to_string(offset_);
  }
  return s;
}

}  // namespace lrpdb
