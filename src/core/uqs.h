#ifndef WVM_CORE_UQS_H_
#define WVM_CORE_UQS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "channel/message.h"
#include "common/result.h"
#include "query/query.h"
#include "query/view_def.h"

namespace wvm {

/// ECA's unanswered query set UQS (Algorithm 5.2): the queries sent and not
/// yet answered, in id order, and the compensation they impose on a new
/// query, Q_i = V<U_i> - sum_{Q_j in UQS} Q_j<U_i>. Eca and its subclasses,
/// EcaLocal and Lca keep their UQS here; ECA-Key keeps bare ids, as it
/// never compensates.
class UnansweredQueries {
 public:
  bool empty() const { return queries_.empty(); }
  const std::map<uint64_t, Query>& queries() const { return queries_; }

  void Add(Query q) { queries_.emplace(q.id(), std::move(q)); }
  /// Removes the answered query; Internal when `query_id` is not pending.
  Status Answer(uint64_t query_id);
  void Clear() { queries_.clear(); }

  /// q -= sum_{Q_j in UQS} Q_j<u>, in id order. Substituted terms keep
  /// their delta tags: each names the update whose delta it corrects.
  void Compensate(const Update& u, Query* q) const;
  /// The batch form (Section 7): q -= sum_{Q_j in UQS} IncExc(Q_j, batch).
  void Compensate(const std::vector<Update>& batch, Query* q) const;

 private:
  std::map<uint64_t, Query> queries_;
};

/// LCA's per-update split of tagged term answers (Section 5.3). Every term
/// carries a delta tag, the id of the update whose view delta its answer
/// belongs to. An update's entry sums the answers tagged with it and is
/// complete when none of its terms is in flight; a tag-i term is only
/// created while another one is unanswered, so a count of zero is final.
/// Complete entries are released strictly in update order.
class TaggedDeltas {
 public:
  /// One update's delta. A key-delete entry (ECA-Local's local deletes)
  /// carries the deleted key instead: it removes the matching rows of the
  /// view it is released into.
  struct Entry {
    Relation delta;
    std::optional<ColumnValues> key_delete;
    int open_terms = 0;
  };

  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  /// Opens an update's entry with its known delta, or as a key-delete.
  void Open(uint64_t update_id, Relation delta) {
    entries_.emplace(update_id, Entry{std::move(delta), std::nullopt, 0});
  }
  void OpenKeyDelete(uint64_t update_id, ColumnValues key) {
    entries_.emplace(update_id, Entry{Relation(), std::move(key), 0});
  }

  /// A term tagged `tag` went to the source, or was evaluated at the
  /// warehouse to `part`. Internal when no entry is open for `tag`.
  Status CountTerm(uint64_t tag);
  Status AddLocal(uint64_t tag, const Relation& part);

  /// Splits an answer's term results into their tags' entries. Internal
  /// when tags and results are misaligned, a tag has no open entry, or an
  /// entry receives more answers than terms were sent.
  Status Fold(const AnswerMessage& a);

  /// Moves the first entry out if it is complete; false otherwise.
  bool PopComplete(Entry* out);

 private:
  Entry* Find(uint64_t tag);

  std::map<uint64_t, Entry> entries_;  // by update id
};

}  // namespace wvm

#endif  // WVM_CORE_UQS_H_
