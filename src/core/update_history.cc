#include "core/update_history.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace wvm {

KeyedUpdateHistory::KeyedUpdateHistory(
    std::vector<std::vector<size_t>> key_cols) {
  relations_.resize(key_cols.size());
  for (size_t r = 0; r < key_cols.size(); ++r) {
    relations_[r].key_cols = std::move(key_cols[r]);
  }
}

Status KeyedUpdateHistory::Record(size_t relation, const Update& u) {
  if (u.id < next_id_) {
    return Status::InvalidArgument(
        StrCat("update history ids must be strictly increasing: ",
               u.ToString(), " has id ", u.id, " after ", next_id_ - 1));
  }
  if (relation < relations_.size() && !relations_[relation].key_cols.empty()) {
    Tracked& tracked = relations_[relation];
    for (size_t c : tracked.key_cols) {
      if (c >= u.tuple.size()) {
        return Status::InvalidArgument(
            StrCat("update ", u.ToString(), " lacks key column ", c));
      }
    }
    LastWrite& last = tracked.last[u.tuple.Project(tracked.key_cols)];
    last.kind = u.kind;
    last.row = u.tuple;
  }
  next_id_ = u.id + 1;
  return Status::OK();
}

const KeyedUpdateHistory::LastWrite* KeyedUpdateHistory::Find(
    size_t relation, const std::vector<size_t>& cols,
    const std::vector<Value>& key) const {
  if (relation >= relations_.size() || cols.size() != key.size()) {
    return nullptr;
  }
  const Tracked& tracked = relations_[relation];
  if (tracked.last.empty() || cols.size() != tracked.key_cols.size()) {
    return nullptr;
  }
  // Reorder the probe into declaration order: a foreign key may list the
  // key columns in another order than the key itself.
  std::vector<Value> ordered;
  ordered.reserve(key.size());
  for (size_t c : tracked.key_cols) {
    auto it = std::find(cols.begin(), cols.end(), c);
    if (it == cols.end()) {
      return nullptr;
    }
    ordered.push_back(key[it - cols.begin()]);
  }
  auto it = tracked.last.find(Tuple(std::move(ordered)));
  return it == tracked.last.end() ? nullptr : &it->second;
}

void KeyedUpdateHistory::Clear() {
  for (Tracked& tracked : relations_) {
    tracked.last.clear();
  }
  next_id_ = 0;
}

size_t KeyedUpdateHistory::num_keys() const {
  size_t n = 0;
  for (const Tracked& tracked : relations_) {
    n += tracked.last.size();
  }
  return n;
}

}  // namespace wvm
