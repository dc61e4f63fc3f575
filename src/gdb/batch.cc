#include "src/gdb/batch.h"

namespace lrpdb {

void BatchSelectDataEquals(const TupleBlock& block, int column,
                           DataValue value, SelectionMask* mask) {
  const std::vector<DataValue>& col = block.store().data_column(column);
  mask->KeepIf([&](size_t row) { return col[block.id(row)] == value; });
}

void BatchSelectDataColumnsEqual(const TupleBlock& block, int column_a,
                                 int column_b, SelectionMask* mask) {
  const std::vector<DataValue>& a = block.store().data_column(column_a);
  const std::vector<DataValue>& b = block.store().data_column(column_b);
  mask->KeepIf([&](size_t row) {
    EntryId id = block.id(row);
    return a[id] == b[id];
  });
}

void BatchShiftColumn(const TupleBlock& block, int column, int64_t c,
                      const SelectionMask& mask, std::vector<Lrp>* out) {
  out->assign(block.rows(), Lrp());
  mask.ForEachSet([&](size_t row) {
    (*out)[row] = block.tuple(row).lrp(column).Shifted(c);
  });
}

}  // namespace lrpdb
