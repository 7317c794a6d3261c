// Scan-based reference for StoredRelation's access paths: the index probe
// and the delete as they were before the indexes became search structures.
// Every probe walks the whole key column and every delete finds its row
// with std::find. Linear on purpose: it is the obviously-correct
// specification the indexed StoredRelation is differential-tested against
// (storage_differential_test.cc) — same rows in the same physical order,
// same matches in the same order, same page reads and probe counts, and
// the same rows per distinct value of every column.
#ifndef WVM_TESTS_STORAGE_REFERENCE_H_
#define WVM_TESTS_STORAGE_REFERENCE_H_

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "relational/tuple.h"
#include "storage/io_stats.h"

namespace wvm {
namespace reference {

class ScanStore {
 public:
  ScanStore(std::string name, int tuples_per_block)
      : name_(std::move(name)), k_(tuples_per_block) {}

  // Declares an index on `column`. A clustered one sorts the rows stably
  // by that column and keeps them sorted from then on.
  void AddIndex(size_t column, bool clustered) {
    if (clustered) {
      clustered_ = column;
      SortClustered();
    }
  }

  // A clustered file inserts after the last row with an equal key; a heap
  // file appends.
  void Insert(const Tuple& t) {
    auto pos = rows_.end();
    if (clustered_.has_value()) {
      const size_t c = *clustered_;
      pos = std::upper_bound(rows_.begin(), rows_.end(), t.value(c),
                             [c](const Value& v, const Tuple& row) {
                               return v < row.value(c);
                             });
    }
    rows_.insert(pos, t);
  }

  void BulkLoad(const std::vector<Tuple>& tuples) {
    rows_.insert(rows_.end(), tuples.begin(), tuples.end());
    SortClustered();
  }

  // Removes the physically first copy of `t`; false if there is none.
  bool Delete(const Tuple& t) {
    auto it = std::find(rows_.begin(), rows_.end(), t);
    if (it == rows_.end()) {
      return false;
    }
    rows_.erase(it);
    return true;
  }

  // The probe through the index on `column` (the clustered one when it is
  // on `column`), charged by the Appendix D rules.
  std::vector<Tuple> IndexProbe(size_t column, const Value& value,
                                IOStats* io, ReadCache* cache) const {
    ++io->index_probes;
    std::vector<Tuple> matches;
    std::set<int> blocks_touched;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].value(column) == value) {
        matches.push_back(rows_[i]);
        blocks_touched.insert(static_cast<int>(i) / k_);
      }
    }
    auto charge = [&](int b) {
      if (cache == nullptr || cache->Charge(name_, b)) {
        ++io->page_reads;
      }
    };
    if (clustered_ == column) {
      // An unsuccessful probe still reads the block where the value would
      // live, if the file is non-empty.
      if (blocks_touched.empty() && !rows_.empty()) {
        auto pos = std::lower_bound(rows_.begin(), rows_.end(), value,
                                    [column](const Tuple& row, const Value& v) {
                                      return row.value(column) < v;
                                    });
        const int num_blocks =
            (static_cast<int>(rows_.size()) + k_ - 1) / k_;
        charge(std::min(static_cast<int>(pos - rows_.begin()) / k_,
                        num_blocks - 1));
      }
      for (int b : blocks_touched) {
        charge(b);
      }
    } else if (cache == nullptr) {
      io->page_reads += static_cast<int64_t>(matches.size());
    } else {
      for (int b : blocks_touched) {
        charge(b);
      }
    }
    return matches;
  }

  // Rows per distinct value of `column`, counted from scratch; 0 when the
  // file is empty.
  double MatchesPerKey(size_t column) const {
    if (rows_.empty()) {
      return 0.0;
    }
    std::set<Value> distinct;
    for (const Tuple& row : rows_) {
      distinct.insert(row.value(column));
    }
    return static_cast<double>(rows_.size()) /
           static_cast<double>(distinct.size());
  }

  const std::vector<Tuple>& rows() const { return rows_; }

 private:
  void SortClustered() {
    if (!clustered_.has_value()) {
      return;
    }
    const size_t c = *clustered_;
    std::stable_sort(rows_.begin(), rows_.end(),
                     [c](const Tuple& a, const Tuple& b) {
                       return a.value(c) < b.value(c);
                     });
  }

  std::string name_;
  int k_;
  std::optional<size_t> clustered_;
  std::vector<Tuple> rows_;
};

}  // namespace reference
}  // namespace wvm

#endif  // WVM_TESTS_STORAGE_REFERENCE_H_
