#ifndef WVM_CORE_ECA_KEY_H_
#define WVM_CORE_ECA_KEY_H_

#include <set>
#include <string>

#include "core/warehouse.h"

namespace wvm {

/// Section 5.4 — the ECA-Key algorithm, applicable when the view retains a
/// key of every base relation. The key property streamlines ECA twice:
///
///   * deletes are handled entirely at the warehouse by `key-delete`
///     (remove every view tuple carrying the deleted key values) — no query
///     is sent to the source;
///   * inserts still query the source, but need NO compensating queries:
///     any anomaly surfaces either as a duplicate view tuple (impossible in
///     a keyed view, hence detected and ignored) or as a tuple that a
///     pending delete would remove anyway.
///
/// COLLECT is a working copy of MV rather than a delta accumulator, and MV
/// is replaced by COLLECT whenever UQS is empty.
class EcaKey : public ViewMaintainer {
 public:
  /// Fails at Initialize() time if the view lacks the key property.
  explicit EcaKey(ViewDefinitionPtr view) : ViewMaintainer(std::move(view)) {}

  std::string name() const override { return "eca-key"; }

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override { return uqs_.empty(); }

  const Relation& collect() const { return collect_; }

  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

 private:
  /// A key-delete processed while insert queries were pending. The paper's
  /// Appendix C argument ("the query is executed after U_d, so it does not
  /// see the deleted key value") holds for key values the source must look
  /// up, but NOT when the delete removes the very tuple a pending query
  /// binds: V<U_ins> carries the tuple inside the query, so its answer
  /// contains the key regardless of source state. We therefore remember
  /// key-deletes until UQS drains and suppress answer tuples belonging to
  /// updates older than the delete.
  struct LoggedKeyDelete {
    uint64_t update_id;
    ColumnValues constraints;
  };

  /// True if `t` matches a logged key-delete newer than `answer_update_id`.
  bool SupersededByKeyDelete(const Tuple& t, uint64_t answer_update_id) const;

  /// Installs COLLECT into MV if UQS is empty.
  void MaybeInstall();

  /// ECA-Key's recoverable state: MV, pending query ids, the MV working
  /// copy, and the key-delete log.
  struct Snapshot : MaintainerSnapshot {
    std::set<uint64_t> uqs;
    Relation collect;
    std::vector<LoggedKeyDelete> key_delete_log;
  };

  std::set<uint64_t> uqs_;  // pending query ids (queries need not be kept)
  Relation collect_;        // working copy of MV
  std::vector<LoggedKeyDelete> key_delete_log_;
};

}  // namespace wvm

#endif  // WVM_CORE_ECA_KEY_H_
