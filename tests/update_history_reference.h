// Scan-based reference for KeyedUpdateHistory: the self-maintainer's update
// history as it was kept before the last-write index — every recorded
// update, in id order, and "the last write to key k of relation r"
// answered by scanning all of them. Linear on purpose: it is the
// obviously-correct specification the index is differential-tested
// against (update_history_differential_test.cc).
#ifndef WVM_TESTS_UPDATE_HISTORY_REFERENCE_H_
#define WVM_TESTS_UPDATE_HISTORY_REFERENCE_H_

#include <set>
#include <utility>
#include <vector>

#include "relational/tuple.h"
#include "relational/update.h"
#include "relational/value.h"

namespace wvm {
namespace reference {

class ScanHistory {
 public:
  // Records `u` unless its id is not above every id recorded before (the
  // journal's strictly increasing LSN rule); returns whether it did.
  bool Record(size_t relation, const Update& u) {
    if (!log_.empty() && u.id <= log_.back().second.id) {
      return false;
    }
    log_.emplace_back(relation, u);
    return true;
  }

  // The last update to `relation` whose columns `cols` hold `key`, or
  // nullptr if there is none.
  const Update* Find(size_t relation, const std::vector<size_t>& cols,
                     const std::vector<Value>& key) const {
    const Update* last = nullptr;
    for (const auto& [r, u] : log_) {
      if (r != relation) {
        continue;
      }
      bool match = true;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!(u.tuple.value(cols[i]) == key[i])) {
          match = false;
          break;
        }
      }
      if (match) {
        last = &u;
      }
    }
    return last;
  }

  // Distinct (relation, key) pairs written, over the relations with a
  // non-empty entry in `key_cols`.
  size_t DistinctKeys(const std::vector<std::vector<size_t>>& key_cols) const {
    std::set<std::pair<size_t, Tuple>> keys;
    for (const auto& [r, u] : log_) {
      if (r < key_cols.size() && !key_cols[r].empty()) {
        keys.emplace(r, u.tuple.Project(key_cols[r]));
      }
    }
    return keys.size();
  }

  void Clear() { log_.clear(); }

 private:
  std::vector<std::pair<size_t, Update>> log_;
};

}  // namespace reference
}  // namespace wvm

#endif  // WVM_TESTS_UPDATE_HISTORY_REFERENCE_H_
