// Difference-bound matrices over the integers.
//
// The paper's constraint atoms (Section 2.1 / 4.1) all normalize to bounds of
// the form Ti - Tj <= c with integer c, where one distinguished variable T0
// is the constant zero (absolute bounds Ti < c, c < Ti, Ti = c go through
// T0). Strict bounds over Z reduce to non-strict ones (x < c iff x <= c-1),
// so a conjunction of the paper's constraints is exactly an integer DBM.
//
// Canonical form is the all-pairs-shortest-path closure; difference
// constraint systems are integral (totally unimodular), so the closure is
// exact over Z: the system is satisfiable iff the constraint graph has no
// negative cycle, and the closed matrix entries are the tightest implied
// bounds.
//
// Only the m(m+1) off-diagonal bounds are stored: Ti - Ti <= 0 constrains
// nothing, so bound(i, i) reads 0 and is never written. Closure records a
// negative cycle (the diagonal entry it would have driven below 0) in the
// DBM's satisfiability flag instead.
#ifndef LRPDB_CONSTRAINTS_DBM_H_
#define LRPDB_CONSTRAINTS_DBM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace lrpdb {

// A bound value: an integer or +infinity (no constraint).
class Bound {
 public:
  // Unconstrained.
  Bound() : value_(kInfValue) {}
  static Bound Finite(int64_t c) {
    Bound b;
    b.value_ = c;
    return b;
  }
  static Bound Infinity() { return Bound(); }

  bool is_infinite() const { return value_ == kInfValue; }
  int64_t value() const {
    LRPDB_CHECK(!is_infinite());
    return value_;
  }

  // Saturating addition (inf + x = inf).
  friend Bound operator+(Bound a, Bound b) {
    if (a.is_infinite() || b.is_infinite()) return Infinity();
    return Finite(a.value_ + b.value_);
  }
  friend bool operator<(Bound a, Bound b) {
    if (b.is_infinite()) return !a.is_infinite();
    if (a.is_infinite()) return false;
    return a.value_ < b.value_;
  }
  friend bool operator<=(Bound a, Bound b) { return !(b < a); }
  friend bool operator==(Bound a, Bound b) { return a.value_ == b.value_; }
  friend bool operator!=(Bound a, Bound b) { return a.value_ != b.value_; }

  std::string ToString() const;

 private:
  // Sentinel chosen so that Finite(x) + Finite(y) cannot reach it for the
  // bound magnitudes this library produces.
  static constexpr int64_t kInfValue = INT64_MAX / 4;
  int64_t value_;
};

// A borrowed, read-only bound matrix over num_vars variables: a Dbm's
// bounds, or a row of a TupleStore arena (src/gdb/tuple_store.h). Reads the
// bounds exactly as stored; nothing here closes them. The storage is the
// BoundCount(num_vars) off-diagonal entries, row-major with the diagonal
// skipped; the diagonal reads 0.
class DbmView {
 public:
  DbmView(int num_vars, const Bound* bounds)
      : num_vars_(num_vars), bounds_(bounds) {}

  // Stored bounds of a DBM over `num_vars` variables: m(m+1).
  static constexpr size_t BoundCount(int num_vars) {
    return static_cast<size_t>(num_vars) * static_cast<size_t>(num_vars + 1);
  }
  // Position of off-diagonal entry (i, j), i != j, in the stored bounds.
  static constexpr size_t Index(int num_vars, int i, int j) {
    return static_cast<size_t>(i * num_vars + j - (j > i ? 1 : 0));
  }

  int num_vars() const { return num_vars_; }
  Bound bound(int i, int j) const {
    return i == j ? Bound::Finite(0) : bounds_[Index(num_vars_, i, j)];
  }
  // The BoundCount(num_vars()) stored bounds.
  const Bound* bounds() const { return bounds_; }

  // True iff the integer point (v1..vm) satisfies all bounds.
  bool ContainsPoint(const std::vector<int64_t>& values) const;
  // See Dbm::ToString.
  std::string ToString(const std::vector<std::string>* names = nullptr) const;

 private:
  int num_vars_;
  const Bound* bounds_;
};

// A conjunction of integer difference bounds over variables x1..xm plus the
// implicit zero variable x0 == 0. Entry (i, j) bounds xi - xj <= m(i, j).
class Dbm {
 public:
  // A DBM over `num_vars` real variables (indices 1..num_vars) with no
  // constraints.
  explicit Dbm(int num_vars);
  // An owned copy of the viewed bounds (not assumed closed).
  Dbm(DbmView view);  // NOLINT: implicit, so `Dbm d = tuple.constraint();`

  int num_vars() const { return num_vars_; }
  DbmView view() const { return DbmView(num_vars_, bounds_.data()); }

  // Index 0 addresses the constant-zero variable.
  Bound bound(int i, int j) const { return view().bound(i, j); }

  // Makes this the unconstrained DBM over `num_vars` variables, reusing the
  // bound storage: a parser filling one scratch DBM per fact resets it
  // instead of allocating a new one.
  void Reset(int num_vars);

  // Makes this a copy of the viewed bounds, reusing the bound storage: a
  // kernel that reloads one scratch DBM per row allocates nothing. With
  // `closed`, the caller vouches that the bounds are the closure of a
  // satisfiable DBM (copied out of one after IsSatisfiable() held), so
  // nothing is closed, or charged, again.
  void Assign(DbmView view, bool closed = false);

  // --- Constraint construction (all invalidate the closure) ---

  // xi - xj <= c. Keeps the tighter of the existing and new bound.
  void AddDifferenceUpperBound(int i, int j, int64_t c);
  // xi - xj = c.
  void AddDifferenceEquality(int i, int j, int64_t c);
  // xi <= c / xi >= c / xi == c (absolute, via x0).
  void AddUpperBound(int i, int64_t c) { AddDifferenceUpperBound(i, 0, c); }
  void AddLowerBound(int i, int64_t c) { AddDifferenceUpperBound(0, i, -c); }
  void AddEquality(int i, int64_t c) { AddDifferenceEquality(i, 0, c); }

  // Conjoins all bounds of `other` (same num_vars) into this.
  void And(DbmView other);
  void And(const Dbm& other) { And(other.view()); }

  // Substitutes xi := xi + c everywhere (used when a stored column lrp is
  // shifted): bounds mentioning xi translate accordingly.
  void ShiftVariable(int i, int64_t c);

  // --- Queries (close the DBM as needed; Close() is memoized) ---

  // Shortest-path closure. Idempotent; after it, IsSatisfiable() is valid
  // and, when it holds, bound(i, j) entries are the tightest implied
  // bounds. Unsatisfiability sticks: constraints added later cannot undo it.
  void Close();
  bool IsSatisfiable() const;

  // True iff every integer solution of this DBM satisfies `other`
  // (trivially true when this is unsatisfiable). `other` is read as
  // stored; it need not be closed.
  bool Implies(DbmView other) const;
  bool Implies(const Dbm& other) const { return Implies(other.view()); }

  // True iff the two DBMs have the same solution set.
  bool EquivalentTo(const Dbm& other) const;

  // The DBM over variables `keep` (1-based indices into this DBM, in the
  // given order), containing exactly the projection of this solution set:
  // closure makes existential projection a submatrix operation. The
  // projection of an unsatisfiable DBM is unsatisfiable.
  Dbm Project(const std::vector<int>& keep) const;

  // this AND NOT other, as a disjoint union of DBMs (possibly empty).
  // Exact over Z. The pieces partition the set difference.
  std::vector<Dbm> Subtract(const Dbm& other) const;

  // True iff every solution of this DBM satisfies some disjunct. Exact:
  // decided by recursive subtraction. This is the decision procedure behind
  // constraint safety (paper, Section 4.3).
  bool ImpliedByUnion(const std::vector<Dbm>& disjuncts) const;

  // True iff the integer point (v1..vm) satisfies all bounds (never, once
  // closure found the DBM unsatisfiable).
  bool ContainsPoint(const std::vector<int64_t>& values) const {
    return satisfiable_ && view().ContainsPoint(values);
  }

  // Human-readable conjunction, e.g. "T1 >= 0 & T2 = T1 + 60". Variables are
  // printed as T1..Tm using the supplied names when provided.
  std::string ToString(const std::vector<std::string>* names = nullptr) const {
    return view().ToString(names);
  }

  // Semantic equality: same solution set (alias for EquivalentTo).
  friend bool operator==(const Dbm& a, const Dbm& b) {
    return a.num_vars_ == b.num_vars_ && a.EquivalentTo(b);
  }

 private:
  // Off-diagonal entry (i, j), i != j.
  Bound& At(int i, int j) {
    LRPDB_CHECK(i >= 0 && i <= num_vars_ && j >= 0 && j <= num_vars_ &&
                i != j);
    return bounds_[DbmView::Index(num_vars_, i, j)];
  }

  // Memoized closure; logically const (the solution set never changes).
  void EnsureClosed() const;

  int num_vars_;
  // DbmView::BoundCount(num_vars_) off-diagonal bounds, index 0 = the zero
  // variable.
  mutable std::vector<Bound> bounds_;
  mutable bool closed_ = true;  // An unconstrained DBM is trivially closed.
  // False once a closure found a negative cycle; cleared only by Reset,
  // Assign or construction.
  mutable bool satisfiable_ = true;
};

}  // namespace lrpdb

#endif  // LRPDB_CONSTRAINTS_DBM_H_
