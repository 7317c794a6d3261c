#ifndef WVM_CORE_DEFERRED_H_
#define WVM_CORE_DEFERRED_H_

#include <memory>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace wvm {

/// Deferred / periodic update timing (Section 2). The paper develops its
/// algorithms for *immediate* update — one maintenance round per
/// notification — but observes that "with little or no modification our
/// algorithms can be applied to deferred and periodic update as well".
/// This wrapper realizes that: notifications are buffered at the
/// warehouse, and the wrapped algorithm only runs when the buffer is
/// flushed —
///
///   * periodic update: automatically, every `threshold` buffered updates;
///   * deferred update: explicitly, via Flush() when a warehouse reader
///     asks for the view (tests/examples drive this directly).
///
/// The buffered updates are handed to the inner maintainer as one batch
/// (its OnBatch — ECA processes them back-to-back in one atomic event;
/// EcaBatch turns them into a single inclusion-exclusion query). Between
/// flushes the view is stale but still a valid earlier source state, so
/// consistency is preserved; convergence requires a final flush, exactly
/// like RV's divisibility condition.
class Deferred : public ViewMaintainer {
 public:
  /// threshold <= 0 means "never flush automatically" (pure deferred
  /// mode; call Flush()).
  Deferred(std::unique_ptr<ViewMaintainer> inner, int threshold)
      : ViewMaintainer(inner->view_def()),
        inner_(std::move(inner)),
        threshold_(threshold) {}

  std::string name() const override {
    return "deferred(" + inner_->name() + ")";
  }

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnBatch(const std::vector<Update>& batch,
                 WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override {
    return buffer_.empty() && inner_->IsQuiescent();
  }
  void RecordViewDeltas() override {
    ViewMaintainer::RecordViewDeltas();
    inner_->RecordViewDeltas();
  }

  /// A checkpoint holds the inner maintainer's snapshot and the buffer.
  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  /// The buffered notifications are lost with the inner maintainer's
  /// volatile state.
  void LoseVolatileState() override;

  /// Hands all buffered updates to the inner maintainer now. The deferred
  /// reading: a query arrived against the warehouse view.
  Status Flush(WarehouseContext* ctx);

  size_t buffered() const { return buffer_.size(); }
  const ViewMaintainer& inner() const { return *inner_; }

 private:
  struct Snapshot : MaintainerSnapshot {
    std::shared_ptr<const MaintainerSnapshot> inner;
    std::vector<Update> buffer;
  };

  std::unique_ptr<ViewMaintainer> inner_;
  int threshold_;
  std::vector<Update> buffer_;
};

}  // namespace wvm

#endif  // WVM_CORE_DEFERRED_H_
