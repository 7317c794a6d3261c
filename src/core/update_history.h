#ifndef WVM_CORE_UPDATE_HISTORY_H_
#define WVM_CORE_UPDATE_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "relational/tuple.h"
#include "relational/update.h"
#include "relational/value.h"

namespace wvm {

/// The self-maintainer's update history, reduced to the one question a
/// pruned-complement miss asks of it: what was the last update to the row
/// of relation r whose declared key is k? It is a last-write index: for
/// each tracked relation (one with a pruned complement) it maps each
/// declared key to the kind and row of the last update to that key, so the
/// question costs one hash probe however long the history grows, and a
/// snapshot copies only the keys written to tracked relations.
///
/// Relations are named by their position in the view. Every update the
/// maintainer applies is recorded, tracked or not, and ids must strictly
/// increase across all of them — the order the source executed them in.
/// The history lives in warehouse memory only (it is never written to a
/// WAL), so it carries no checksums; a bare crash drops it with the rest of
/// the auxiliary state.
class KeyedUpdateHistory {
 public:
  /// The last update to one key.
  struct LastWrite {
    UpdateKind kind = UpdateKind::kInsert;
    Tuple row;
  };

  KeyedUpdateHistory() = default;
  /// `key_cols[r]` lists relation r's declared key columns (own-schema
  /// indexes, in declaration order); an empty list leaves r untracked.
  explicit KeyedUpdateHistory(std::vector<std::vector<size_t>> key_cols);

  /// Records `u`, an update to the relation at view position `relation`.
  /// Fails with InvalidArgument, recording nothing, if u.id is not above
  /// every id recorded before or if u's tuple lacks a key column.
  Status Record(size_t relation, const Update& u);

  /// The last write to the row of `relation` whose columns `cols` hold
  /// `key` (aligned with `cols`), or nullptr if there was none. `cols` may
  /// list the key columns in any order; a lookup on columns that are not
  /// exactly the relation's key, or on an untracked relation, finds
  /// nothing. The pointer is valid until the next Record or assignment.
  const LastWrite* Find(size_t relation, const std::vector<size_t>& cols,
                        const std::vector<Value>& key) const;

  /// Forgets every write and the id floor; keeps the tracked key columns.
  void Clear();

  /// Distinct keys written, across all tracked relations.
  size_t num_keys() const;

 private:
  struct Tracked {
    std::vector<size_t> key_cols;
    std::unordered_map<Tuple, LastWrite, TupleHash, TupleEq> last;
  };

  std::vector<Tracked> relations_;  // by view position
  uint64_t next_id_ = 0;            // one past the last recorded id
};

}  // namespace wvm

#endif  // WVM_CORE_UPDATE_HISTORY_H_
