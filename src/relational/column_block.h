#ifndef WVM_RELATIONAL_COLUMN_BLOCK_H_
#define WVM_RELATIONAL_COLUMN_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relational/relation.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace wvm {

/// Column-major intermediate for the compiled-plan executor: one value
/// vector per column plus a parallel multiplicity column. Join steps append
/// matched rows column-by-column instead of materializing a Tuple per
/// intermediate row; only the final gather into a Relation re-forms tuples
/// (and only over the projected output columns).
///
/// Unlike a Relation, a ColumnBlock does not deduplicate: the same row may
/// appear in several positions with separate counts. That is exactly right
/// for join intermediates, where dedup before the final projection would be
/// wasted work (the projection merges rows anyway).
class ColumnBlock {
 public:
  ColumnBlock() = default;
  explicit ColumnBlock(size_t width) : cols_(width) {}

  size_t width() const { return cols_.size(); }
  size_t rows() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  const Value& at(size_t row, size_t col) const { return cols_[col][row]; }
  int64_t count(size_t row) const { return counts_[row]; }
  const std::vector<Value>& column(size_t col) const { return cols_[col]; }

  void Reserve(size_t n) {
    for (auto& c : cols_) {
      c.reserve(n);
    }
    counts_.reserve(n);
  }

  /// Appends one row given per-column values.
  void AppendRow(const std::vector<Value>& values, int64_t count) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(values[c]);
    }
    counts_.push_back(count);
  }

  /// Appends row `src_row` of `src` widened by `row` (a matched build-side
  /// tuple), multiplying multiplicities — the emit step of a compiled join.
  void AppendJoined(const ColumnBlock& src, size_t src_row, const Tuple& row,
                    int64_t row_count) {
    const size_t w = src.width();
    for (size_t c = 0; c < w; ++c) {
      cols_[c].push_back(src.cols_[c][src_row]);
    }
    for (size_t c = w; c < cols_.size(); ++c) {
      cols_[c].push_back(row.value(c - w));
    }
    counts_.push_back(src.counts_[src_row] * row_count);
  }

  /// Decomposes a relation into columns (one position per distinct tuple,
  /// multiplicity preserved — including negative multiplicities).
  static ColumnBlock FromRelation(const Relation& r);

  /// Single-row block for a bound operand: the tuple's values once, with
  /// multiplicity `sign`.
  static ColumnBlock FromSignedTuple(const Tuple& t, int sign);

 private:
  std::vector<std::vector<Value>> cols_;
  std::vector<int64_t> counts_;
};

}  // namespace wvm

#endif  // WVM_RELATIONAL_COLUMN_BLOCK_H_
