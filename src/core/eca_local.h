#ifndef WVM_CORE_ECA_LOCAL_H_
#define WVM_CORE_ECA_LOCAL_H_

#include <string>

#include "core/uqs.h"
#include "core/warehouse.h"

namespace wvm {

/// Section 5.5 — the ECA-Local algorithm: compensating queries for updates
/// that need the source, local processing for updates that do not. The
/// paper sketches the difficulties (buffering local updates, splitting
/// query results per update) and leaves the details as future work; this
/// implementation fills them in:
///
///   * An update is LOCAL when (a) the view references exactly one base
///     relation (its delta pi(sigma(+-t)) needs no base data — the
///     "autonomously computable" case of [BLT86]), or (b) it is a delete
///     and the view retains all base keys (handled by ECA-Key's
///     key-delete).
///   * Non-local updates run exactly as in ECA, with LCA-style per-term
///     delta tags so results can be split per update ("split" in the
///     paper's wording).
///   * Every update becomes an operation in an id-ordered buffer; an
///     operation is ready when its terms are all answered (local ones are
///     ready immediately). Ready operations are applied in order to a
///     staged working view; MV is replaced by the staged view only when no
///     query is in flight and no operation is buffered, which preserves
///     ECA's strong consistency argument.
///
/// Local key-deletes send no compensation, so individual deltas can
/// misattribute tuples that a later key-delete removes anyway; the staged
/// view is only installed at quiescent points, where those artifacts have
/// cancelled (the same reasoning as the ECA-Key correctness sketch,
/// Appendix C).
class EcaLocal : public ViewMaintainer {
 public:
  explicit EcaLocal(ViewDefinitionPtr view)
      : ViewMaintainer(std::move(view)) {}

  std::string name() const override { return "eca-local"; }

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override {
    return uqs_.empty() && pending_.empty();
  }

  /// Number of updates handled without querying the source (diagnostics
  /// for the locality-rate benchmarks).
  int64_t local_updates() const { return local_updates_; }
  int64_t remote_updates() const { return remote_updates_; }

  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

 private:
  bool IsLocalDelete(const Update& u) const;
  bool IsSingleRelationView() const { return view_->num_relations() == 1; }

  /// Applies ready leading operations to the staged view; installs MV when
  /// fully drained.
  void ApplyAndMaybeInstall();

  /// ECA-Local's recoverable state: MV, UQS, the id-ordered operation
  /// buffer, and the staged working view. The diagnostic counters are
  /// deliberately excluded — they describe the run, not the view.
  struct Snapshot : MaintainerSnapshot {
    UnansweredQueries uqs;
    TaggedDeltas pending;
    Relation staged;
  };

  UnansweredQueries uqs_;
  TaggedDeltas pending_;  // one operation per update, in update order
  Relation staged_;
  int64_t local_updates_ = 0;
  int64_t remote_updates_ = 0;
};

}  // namespace wvm

#endif  // WVM_CORE_ECA_LOCAL_H_
