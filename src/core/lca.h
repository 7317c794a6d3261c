#ifndef WVM_CORE_LCA_H_
#define WVM_CORE_LCA_H_

#include <string>

#include "core/uqs.h"
#include "core/warehouse.h"

namespace wvm {

/// Section 5.3 — the Lazy Compensating Algorithm, the *complete* variant of
/// ECA: every source state is reflected in some warehouse state. The paper
/// describes LCA only in outline ("for each source update, LCA waits until
/// it has received all query answers (including compensation) for the
/// update, then applies the changes for that update to the view") and
/// leaves the details open; this implementation fills them in as follows.
///
///   * Queries are built exactly as in ECA (same compensation), but every
///     term carries a delta tag: the id of the update whose view-delta its
///     answer belongs to. V<U_i> is tagged i; a compensating term
///     Q_j<U_i> keeps the tags of Q_j's terms, because it corrects the
///     delta of the update Q_j was issued for.
///   * The source answers term-by-term (one atomic evaluation, one
///     message), so the warehouse can split an answer into per-update
///     contributions.
///   * Each update's delta is complete when no in-flight term carries its
///     tag. New terms with tag i can only be created while a query holding
///     a tag-i term is still unanswered, so a pending count per update id
///     (incremented at send, decremented at receipt) reaching zero is
///     final.
///   * Deltas are applied to MV strictly in update order; the view thus
///     steps through V[ss_0], V[ss_1], ..., V[ss_k] — completeness.
///
/// LCA trades extra latency (and buffering) for the stronger guarantee;
/// Section 5.3 expects ECA to be preferable in practice.
class Lca : public ViewMaintainer {
 public:
  explicit Lca(ViewDefinitionPtr view) : ViewMaintainer(std::move(view)) {}

  std::string name() const override { return "lca"; }

  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override {
    return uqs_.empty() && pending_.empty();
  }

  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

 private:
  /// LCA's recoverable state: MV plus UQS and the per-update deltas still
  /// being assembled.
  struct Snapshot : MaintainerSnapshot {
    UnansweredQueries uqs;
    TaggedDeltas pending;
  };

  /// Applies, in update order, every leading delta whose terms have all
  /// been answered.
  void ApplyCompletedPrefix(WarehouseContext* ctx);

  UnansweredQueries uqs_;
  TaggedDeltas pending_;  // update id -> delta under assembly
};

}  // namespace wvm

#endif  // WVM_CORE_LCA_H_
