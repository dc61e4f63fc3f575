// Ground generalized tuples (paper, Section 2.1).
//
// A ground generalized tuple of temporal arity m and data arity l,
//
//   (a1*n1 + b1, ..., am*nm + bm, d1, ..., dl)  with constraints(T1..Tm),
//
// finitely represents the possibly infinite set of ground tuples
// { (t1..tm, d1..dl) : ti in {ai*ni + bi} and constraints(t1..tm) }.
// The constraints are a conjunction of difference bounds held as a Dbm.
#ifndef LRPDB_GDB_GENERALIZED_TUPLE_H_
#define LRPDB_GDB_GENERALIZED_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/constraints/dbm.h"
#include "src/gdb/schema.h"
#include "src/lrp/lrp.h"

namespace lrpdb {

// The "free extension" of a generalized tuple: its lrp vector and data
// constants with the constraints dropped (paper, Section 4.3). Used as the
// signature for free-extension safety detection.
struct FreeExtension {
  std::vector<Lrp> lrps;
  std::vector<DataValue> data;

  friend bool operator==(const FreeExtension& a, const FreeExtension& b) {
    return a.lrps == b.lrps && a.data == b.data;
  }
};

// A borrowed run of a tuple's columns: a std::span that also compares by
// value, with another run or with an owned vector, the way the owned
// tuple's vectors do.
template <typename T>
class ColumnSpan : public std::span<const T> {
 public:
  using std::span<const T>::span;
  ColumnSpan(const std::vector<T>& v)  // NOLINT: implicit, like std::span.
      : std::span<const T>(v.data(), v.size()) {}

  std::vector<T> ToVector() const {
    return std::vector<T>(this->begin(), this->end());
  }
  friend bool operator==(ColumnSpan a, ColumnSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

class GeneralizedTuple;

// A borrowed, read-only generalized tuple: the m lrps, k data constants and
// (m+1)^2 DBM bounds of one tuple, wherever they live. A TupleStore hands
// these out over its arenas (TupleStore::tuple), and GeneralizedTuple::view()
// over its own members; every whole-tuple reader takes one. Invalidated by
// any mutation of what it views. ToTuple() makes an owned copy, for API
// boundaries only.
class TupleView {
 public:
  TupleView(const Lrp* lrps, int temporal_arity, const DataValue* data,
            int data_arity, const Bound* bounds)
      : lrps_(lrps),
        data_(data),
        bounds_(bounds),
        temporal_arity_(temporal_arity),
        data_arity_(data_arity) {}

  int temporal_arity() const { return temporal_arity_; }
  int data_arity() const { return data_arity_; }

  ColumnSpan<Lrp> lrps() const { return {lrps_, size_t(temporal_arity_)}; }
  const Lrp& lrp(int i) const { return lrps_[i]; }
  ColumnSpan<DataValue> data() const { return {data_, size_t(data_arity_)}; }
  // The constraint's bounds exactly as stored (not closed).
  DbmView constraint() const { return DbmView(temporal_arity_, bounds_); }
  Bound bound(int i, int j) const { return constraint().bound(i, j); }

  // True iff the represented ground set contains (times, data). `times` uses
  // the same column order as lrps().
  bool ContainsGround(const std::vector<int64_t>& times,
                      const std::vector<DataValue>& data) const;

  // e.g. "(168n+8, 168n+10, database) with T2 = T1+2".
  std::string ToString(const Interner* interner = nullptr) const;

  // An owned copy.
  GeneralizedTuple ToTuple() const;

 private:
  const Lrp* lrps_;
  const DataValue* data_;
  const Bound* bounds_;
  int temporal_arity_;
  int data_arity_;
};

class GeneralizedTuple {
 public:
  // `constraint` must range over exactly lrps.size() temporal variables
  // (T1..Tm; the Dbm's zero variable carries absolute bounds).
  GeneralizedTuple(std::vector<Lrp> lrps, std::vector<DataValue> data,
                   Dbm constraint);

  // An owned copy of a borrowed tuple. Implicit, so a view passes wherever
  // an owned tuple is taken (an insert, a restore); the copy is the cost.
  GeneralizedTuple(TupleView view);  // NOLINT

  // A tuple with no constraints (the free extension as a tuple).
  static GeneralizedTuple Unconstrained(std::vector<Lrp> lrps,
                                        std::vector<DataValue> data);

  int temporal_arity() const { return static_cast<int>(lrps_.size()); }
  int data_arity() const { return static_cast<int>(data_.size()); }

  const std::vector<Lrp>& lrps() const { return lrps_; }
  const Lrp& lrp(int i) const { return lrps_[i]; }
  const std::vector<DataValue>& data() const { return data_; }
  const Dbm& constraint() const { return constraint_; }
  Dbm& mutable_constraint() { return constraint_; }

  FreeExtension free_extension() const { return {lrps_, data_}; }

  // This tuple as a borrowed view; valid until the tuple is mutated.
  TupleView view() const {
    return TupleView(lrps_.data(), temporal_arity(), data_.data(),
                     data_arity(), constraint_.view().bounds());
  }

  // True iff the represented ground set contains (times, data). `times` uses
  // the same column order as lrps().
  bool ContainsGround(const std::vector<int64_t>& times,
                      const std::vector<DataValue>& data) const {
    return view().ContainsGround(times, data);
  }

  // True iff the DBM is satisfiable ignoring lrp residues. A cheap
  // necessary condition for non-emptiness; the exact residue-aware test
  // lives in NormalizedTuple (normalized_tuple.h).
  bool ConstraintSatisfiable() const { return constraint_.IsSatisfiable(); }

  // e.g. "(168n+8, 168n+10, database) with T2 = T1+2".
  std::string ToString(const Interner* interner = nullptr) const {
    return view().ToString(interner);
  }

 private:
  std::vector<Lrp> lrps_;
  std::vector<DataValue> data_;
  Dbm constraint_;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_GENERALIZED_TUPLE_H_
