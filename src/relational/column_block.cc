#include "relational/column_block.h"

namespace wvm {

ColumnBlock ColumnBlock::FromRelation(const Relation& r) {
  ColumnBlock out(r.schema().size());
  out.Reserve(r.NumDistinct());
  for (const auto& [t, c] : r.entries()) {
    for (size_t col = 0; col < out.cols_.size(); ++col) {
      out.cols_[col].push_back(t.value(col));
    }
    out.counts_.push_back(c);
  }
  return out;
}

ColumnBlock ColumnBlock::FromSignedTuple(const Tuple& t, int sign) {
  ColumnBlock out(t.size());
  for (size_t col = 0; col < t.size(); ++col) {
    out.cols_[col].push_back(t.value(col));
  }
  out.counts_.push_back(sign);
  return out;
}

}  // namespace wvm
