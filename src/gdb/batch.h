// Columnar batch execution over the interned tuple store (DESIGN.md §9).
//
// The tuple-at-a-time algebra materializes a GeneralizedRelation per
// operator. The batch layer instead views a slice of one TupleStore as a
// TupleBlock — a structure-of-arrays window onto the store's columnar
// DataValue mirrors plus per-row handles through which the stored LRP
// vector and constraint DBM are reachable — and lets operators refine a
// bitset SelectionMask in place. A fused chain of batch selects touches a
// rejected row exactly once (a word-wide bit test plus one column load) and
// allocates nothing; only rows surviving the whole chain ever reach DBM or
// residue work. Modeled on the bitset-masked batch tables of z3's dataflow
// engine (SNIPPETS.md Snippet 3).
#ifndef LRPDB_GDB_BATCH_H_
#define LRPDB_GDB_BATCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/gdb/tuple_store.h"

namespace lrpdb {

// A dense bitset over the rows of one TupleBlock. Batch operators clear
// bits of rows they reject; a row's bit survives the chain iff the row
// passes every operator.
class SelectionMask {
 public:
  SelectionMask() = default;

  // Sizes the mask to `rows` with every row selected.
  void Reset(size_t rows) {
    rows_ = rows;
    words_.assign((rows + 63) / 64, ~uint64_t{0});
    if (rows % 64 != 0 && !words_.empty()) {
      words_.back() = (uint64_t{1} << (rows % 64)) - 1;
    }
  }

  size_t rows() const { return rows_; }
  bool Test(size_t row) const {
    return (words_[row / 64] >> (row % 64)) & 1;
  }
  void Clear(size_t row) { words_[row / 64] &= ~(uint64_t{1} << (row % 64)); }

  size_t CountSet() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }
  bool AnySet() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  // Invokes fn(row) for every selected row, ascending.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t word = words_[wi];
      while (word != 0) {
        fn(wi * 64 + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  // Clears every selected row for which pred(row) is false.
  template <typename Pred>
  void KeepIf(Pred&& pred) {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t word = words_[wi];
      while (word != 0) {
        size_t row = wi * 64 + static_cast<size_t>(std::countr_zero(word));
        if (!pred(row)) words_[wi] &= ~(uint64_t{1} << (row % 64));
        word &= word - 1;
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  size_t rows_ = 0;
};

// A read-only columnar view of candidate entries of one TupleStore: either
// a contiguous entry-id range (a delta generation or a parallel shard) or a
// slice of a posting list, clipped to a range. Rows map to ascending entry
// ids in both forms, which is what lets sharded batch scans concatenate
// deterministically (DESIGN.md §8). The block holds no tuple data itself;
// data columns resolve through the store's columnar mirrors and LRP/DBM
// pieces through the per-row entry handle.
class TupleBlock {
 public:
  TupleBlock() = default;

  // Views the contiguous entry ids [lo, hi) of `store`.
  void FillFromRange(const TupleStore& store, size_t lo, size_t hi) {
    store_ = &store;
    contiguous_ = true;
    lo_ = lo;
    posting_ = nullptr;
    first_ = 0;
    rows_ = hi - lo;
  }

  // Views the entries of `posting` (ascending ids) that fall in [lo, hi).
  void FillFromPosting(const TupleStore& store,
                       const std::vector<EntryId>& posting, size_t lo,
                       size_t hi) {
    store_ = &store;
    contiguous_ = false;
    lo_ = 0;
    posting_ = posting.data();
    auto begin = std::lower_bound(posting.begin(), posting.end(),
                                  static_cast<EntryId>(lo));
    auto end = std::lower_bound(begin, posting.end(),
                                static_cast<EntryId>(hi));
    first_ = static_cast<size_t>(begin - posting.begin());
    rows_ = static_cast<size_t>(end - begin);
  }

  const TupleStore& store() const { return *store_; }
  size_t rows() const { return rows_; }

  // The entry id backing row `row`; ascending in `row` by construction.
  EntryId id(size_t row) const {
    return contiguous_ ? static_cast<EntryId>(lo_ + row)
                       : posting_[first_ + row];
  }

  // Row `row`'s value in data column `column` (via the columnar mirror).
  DataValue data(int column, size_t row) const {
    return store_->data_column(column)[id(row)];
  }

  // Row `row`'s full stored tuple (LRP vector + DBM handle).
  const GeneralizedTuple& tuple(size_t row) const {
    return store_->tuple(id(row));
  }

 private:
  const TupleStore* store_ = nullptr;
  bool contiguous_ = true;
  size_t lo_ = 0;                    // Contiguous form: first entry id.
  const EntryId* posting_ = nullptr;  // Posting form: underlying id array.
  size_t first_ = 0;                  // Posting form: first row's offset.
  size_t rows_ = 0;
};

// --- Batch operators (mask-refining; no intermediate relations) ---

// Keeps rows whose data column `column` equals `value`.
void BatchSelectDataEquals(const TupleBlock& block, int column,
                           DataValue value, SelectionMask* mask);

// Keeps rows whose data columns `column_a` and `column_b` are equal.
void BatchSelectDataColumnsEqual(const TupleBlock& block, int column_a,
                                 int column_b, SelectionMask* mask);

// Shifts temporal column `column` of every selected row by `c` in lrp
// space: out[row] = tuple.lrp(column).Shifted(c). `out` is resized to
// block.rows(); unselected rows keep a default Lrp. (The DBM half of a full
// column shift is Dbm::ShiftVariable, applied by whoever consumes the
// shifted lrps.)
void BatchShiftColumn(const TupleBlock& block, int column, int64_t c,
                      const SelectionMask& mask, std::vector<Lrp>* out);

}  // namespace lrpdb

#endif  // LRPDB_GDB_BATCH_H_
