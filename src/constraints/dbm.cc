#include "src/constraints/dbm.h"

#include <string>

#include "src/common/exec_context.h"

namespace lrpdb {

std::string Bound::ToString() const {
  if (is_infinite()) return "inf";
  return std::to_string(value_);
}

Dbm::Dbm(int num_vars) { Reset(num_vars); }

void Dbm::Reset(int num_vars) {
  LRPDB_CHECK_GE(num_vars, 0);
  num_vars_ = num_vars;
  bounds_.assign(DbmView::BoundCount(num_vars), Bound::Infinity());
  closed_ = true;
  satisfiable_ = true;
}

Dbm::Dbm(DbmView view)
    : num_vars_(view.num_vars()),
      bounds_(view.bounds(),
              view.bounds() + DbmView::BoundCount(view.num_vars())),
      closed_(false) {}

void Dbm::Assign(DbmView view, bool closed) {
  num_vars_ = view.num_vars();
  bounds_.assign(view.bounds(),
                 view.bounds() + DbmView::BoundCount(num_vars_));
  closed_ = closed;
  satisfiable_ = true;
}

void Dbm::AddDifferenceUpperBound(int i, int j, int64_t c) {
  LRPDB_CHECK_NE(i, j);
  Bound b = Bound::Finite(c);
  if (b < At(i, j)) {
    At(i, j) = b;
    closed_ = false;
  }
}

void Dbm::AddDifferenceEquality(int i, int j, int64_t c) {
  AddDifferenceUpperBound(i, j, c);
  AddDifferenceUpperBound(j, i, -c);
}

void Dbm::And(DbmView other) {
  LRPDB_CHECK_EQ(num_vars_, other.num_vars());
  const Bound* theirs = other.bounds();
  for (size_t e = 0; e < bounds_.size(); ++e) {
    if (theirs[e] < bounds_[e]) {
      bounds_[e] = theirs[e];
      closed_ = false;
    }
  }
}

void Dbm::ShiftVariable(int i, int64_t c) {
  LRPDB_CHECK(i >= 1 && i <= num_vars_);
  // After xi := xi + c, a bound (xi_old - xj <= b) becomes xi - xj <= b + c,
  // and (xj - xi_old <= b) becomes xj - xi <= b - c.
  for (int j = 0; j <= num_vars_; ++j) {
    if (j == i) continue;
    if (!At(i, j).is_infinite()) At(i, j) = Bound::Finite(At(i, j).value() + c);
    if (!At(j, i).is_infinite()) At(j, i) = Bound::Finite(At(j, i).value() - c);
  }
  // A translation preserves tightness, so closure status is unaffected.
}

void Dbm::EnsureClosed() const {
  if (closed_) return;
  closed_ = true;
  if (!satisfiable_) return;
  const int m = num_vars_;
  const int n = m + 1;
  // Closure cannot unwind through Status (memoized, const-called). Charge
  // its n^3 work to the ambient ExecContext so a step quota still sees it;
  // the trip surfaces at the caller's next poll site.
  ExecContext::ChargeCurrentSteps(static_cast<int64_t>(n) * n * n);
  // Floyd-Warshall over the off-diagonal entries. Step k leaves row and
  // column k alone (the diagonal is 0), and the diagonal entry (i, i) would
  // become ik + ki: a negative one is a negative cycle, so the DBM is
  // unsatisfiable and the remaining bounds are meaningless.
  Bound* b = bounds_.data();
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (i == k) continue;
      const Bound ik = b[DbmView::Index(m, i, k)];
      if (ik.is_infinite()) continue;
      if (ik + b[DbmView::Index(m, k, i)] < Bound::Finite(0)) {
        satisfiable_ = false;
        return;
      }
      for (int j = 0; j < n; ++j) {
        if (j == i || j == k) continue;
        const Bound via = ik + b[DbmView::Index(m, k, j)];
        Bound& ij = b[DbmView::Index(m, i, j)];
        if (via < ij) ij = via;
      }
    }
  }
}

void Dbm::Close() { EnsureClosed(); }

bool Dbm::IsSatisfiable() const {
  EnsureClosed();
  return satisfiable_;
}

bool Dbm::Implies(DbmView other) const {
  LRPDB_CHECK_EQ(num_vars_, other.num_vars());
  if (!IsSatisfiable()) return true;
  EnsureClosed();
  // Every bound of `other` must already be implied: closed(this)(i,j) <=
  // other(i,j). Using other's raw (unclosed) bounds is sound and complete
  // because the closure of `other` only tightens entries that are implied by
  // its raw entries. Both diagonals are 0.
  const Bound* theirs = other.bounds();
  for (size_t e = 0; e < bounds_.size(); ++e) {
    if (!(bounds_[e] <= theirs[e])) return false;
  }
  return true;
}

bool Dbm::EquivalentTo(const Dbm& other) const {
  LRPDB_CHECK_EQ(num_vars_, other.num_vars_);
  bool sat_a = IsSatisfiable();
  bool sat_b = other.IsSatisfiable();
  if (!sat_a || !sat_b) return sat_a == sat_b;
  return Implies(other) && other.Implies(*this);
}

Dbm Dbm::Project(const std::vector<int>& keep) const {
  EnsureClosed();
  Dbm result(static_cast<int>(keep.size()));
  // Row/col 0 (the zero variable) always maps to 0.
  std::vector<int> src{0};
  for (int v : keep) {
    LRPDB_CHECK(v >= 1 && v <= num_vars_);
    src.push_back(v);
  }
  for (size_t i = 0; i < src.size(); ++i) {
    for (size_t j = 0; j < src.size(); ++j) {
      if (i == j) continue;
      result.At(static_cast<int>(i), static_cast<int>(j)) =
          bound(src[i], src[j]);
    }
  }
  // A submatrix of a closed matrix is closed, and projection of difference
  // constraints is exact on the closure. Without a diagonal the submatrix
  // alone may be satisfiable, so the flag carries emptiness over.
  result.closed_ = true;
  result.satisfiable_ = satisfiable_;
  return result;
}

std::vector<Dbm> Dbm::Subtract(const Dbm& other) const {
  LRPDB_CHECK_EQ(num_vars_, other.num_vars_);
  std::vector<Dbm> pieces;
  if (!IsSatisfiable()) return pieces;
  if (!other.IsSatisfiable()) {
    pieces.push_back(*this);
    return pieces;
  }
  // For each raw finite bound (xi - xj <= c) of `other`, one piece keeps all
  // previous bounds of `other` and violates this one (xj - xi <= -c - 1).
  // The pieces are pairwise disjoint and their union is this \ other.
  Dbm accumulated = *this;  // this AND the bounds of `other` seen so far.
  for (int i = 0; i <= num_vars_; ++i) {
    for (int j = 0; j <= num_vars_; ++j) {
      if (i == j) continue;
      Bound b = other.bound(i, j);
      if (b.is_infinite()) continue;
      Dbm piece = accumulated;
      piece.AddDifferenceUpperBound(j, i, -b.value() - 1);
      if (piece.IsSatisfiable()) pieces.push_back(std::move(piece));
      accumulated.AddDifferenceUpperBound(i, j, b.value());
      if (!accumulated.IsSatisfiable()) return pieces;
    }
  }
  return pieces;
}

bool Dbm::ImpliedByUnion(const std::vector<Dbm>& disjuncts) const {
  if (!IsSatisfiable()) return true;
  std::vector<Dbm> remainder{*this};
  for (const Dbm& d : disjuncts) {
    std::vector<Dbm> next;
    for (const Dbm& piece : remainder) {
      std::vector<Dbm> sub = piece.Subtract(d);
      next.insert(next.end(), sub.begin(), sub.end());
    }
    remainder = std::move(next);
    if (remainder.empty()) return true;
  }
  return remainder.empty();
}

bool DbmView::ContainsPoint(const std::vector<int64_t>& values) const {
  LRPDB_CHECK_EQ(static_cast<int>(values.size()), num_vars_);
  auto value_of = [&](int i) { return i == 0 ? 0 : values[i - 1]; };
  for (int i = 0; i <= num_vars_; ++i) {
    for (int j = 0; j <= num_vars_; ++j) {
      if (i == j) continue;
      Bound b = bound(i, j);
      if (b.is_infinite()) continue;
      if (value_of(i) - value_of(j) > b.value()) return false;
    }
  }
  return true;
}

std::string DbmView::ToString(const std::vector<std::string>* names) const {
  auto name_of = [&](int i) -> std::string {
    if (i == 0) return "0";
    if (names != nullptr && i - 1 < static_cast<int>(names->size())) {
      return (*names)[i - 1];
    }
    return std::string("T").append(std::to_string(i));
  };
  std::string s;
  for (int i = 0; i <= num_vars_; ++i) {
    for (int j = 0; j <= num_vars_; ++j) {
      if (i == j) continue;
      Bound b = bound(i, j);
      if (b.is_infinite()) continue;
      // Print equalities once, as "xi = xj + c".
      Bound rev = bound(j, i);
      if (!rev.is_infinite() && rev.value() == -b.value()) {
        if (i < j) {
          if (!s.empty()) s += " & ";
          s += name_of(i) + " = " + name_of(j) +
               (b.value() >= 0 ? "+" : "") + std::to_string(b.value());
        }
        continue;
      }
      if (!s.empty()) s += " & ";
      s += name_of(i) + " - " + name_of(j) + " <= " + std::to_string(b.value());
    }
  }
  if (s.empty()) s = "true";
  return s;
}

}  // namespace lrpdb
