// Linear repeating points (paper, Section 2.1).
//
// An lrp `an + b` denotes the infinite periodic set of integers
// { a*n + b | n in Z } with a != 0. For example 5n+3 denotes
// {..., -7, -2, 3, 8, 13, ...}. Following the paper we require a non-zero
// period; an integer constant c is represented by the lrp `n` (period 1)
// with an associated constraint T = c kept outside the lrp itself.
#ifndef LRPDB_LRP_LRP_H_
#define LRPDB_LRP_LRP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/statusor.h"

namespace lrpdb {

// A linear repeating point, canonicalized so that period > 0 and
// offset in [0, period). Two Lrps denote the same set iff they compare equal.
class Lrp {
 public:
  // The set Z itself: period 1, offset 0.
  Lrp() : period_(1), offset_(0) {}

  // Canonicalizes (a, b) to (|a|, b mod |a|); `period` must be non-zero.
  Lrp(int64_t period, int64_t offset);

  // Validating factory for untrusted input (rejects period == 0).
  [[nodiscard]] static StatusOr<Lrp> Create(int64_t period, int64_t offset);

  int64_t period() const { return period_; }
  int64_t offset() const { return offset_; }

  // True iff t is a member of the denoted set.
  bool Contains(int64_t t) const { return FloorMod(t - offset_, period_) == 0; }

  // The lrp denoting { t + c : t in this } (translation by c).
  Lrp Shifted(int64_t c) const { return Lrp(period_, offset_ + c); }

  // Intersection of the two denoted sets, computed by the Chinese remainder
  // theorem. Returns nullopt when the sets are disjoint (offsets incompatible
  // modulo gcd of the periods).
  static std::optional<Lrp> Intersect(const Lrp& a, const Lrp& b);

  // True iff the set denoted by this lrp is a subset of `other`'s, which
  // holds iff other.period divides this->period and the offsets agree
  // modulo other.period.
  bool SubsetOf(const Lrp& other) const {
    return period_ % other.period_ == 0 && other.Contains(offset_);
  }

  // The smallest member >= t.
  int64_t NextAtLeast(int64_t t) const {
    return t + FloorMod(offset_ - t, period_);
  }

  // "an+b" or "n" when the lrp is all of Z.
  std::string ToString() const;

  friend bool operator==(const Lrp& a, const Lrp& b) {
    return a.period_ == b.period_ && a.offset_ == b.offset_;
  }
  friend bool operator!=(const Lrp& a, const Lrp& b) { return !(a == b); }
  // Lexicographic, for use as map keys and canonical signatures.
  friend bool operator<(const Lrp& a, const Lrp& b) {
    if (a.period_ != b.period_) return a.period_ < b.period_;
    return a.offset_ < b.offset_;
  }

 private:
  int64_t period_;  // > 0
  int64_t offset_;  // in [0, period_)
};

}  // namespace lrpdb

#endif  // LRPDB_LRP_LRP_H_
