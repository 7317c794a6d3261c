#ifndef WVM_CORE_RV_H_
#define WVM_CORE_RV_H_

#include <string>

#include "core/warehouse.h"

namespace wvm {

/// Appendix D.1 — the "recompute the view" strategy (RV): after every s-th
/// update notification the warehouse asks the source for the entire view
/// (Q = V) and replaces MV with the answer. s = 1 recomputes on every
/// update (the paper's worst case for bytes/IO); s = k recomputes once at
/// the end (the best case).
///
/// RV is consistent (every installed state is V at some source state, in
/// order) and convergent provided the final update triggers a
/// recomputation, i.e. s divides the number of relevant updates.
class RecomputeView : public ViewMaintainer {
 public:
  RecomputeView(ViewDefinitionPtr view, int period)
      : ViewMaintainer(std::move(view)), period_(period > 0 ? period : 1) {}

  std::string name() const override;

  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override { return outstanding_ == 0; }

  int period() const { return period_; }

  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

 private:
  /// RV's recoverable state: MV plus its two counters.
  struct Snapshot : MaintainerSnapshot {
    int count = 0;
    int outstanding = 0;
  };

  int period_;
  int count_ = 0;        // updates seen since the last recomputation request
  int outstanding_ = 0;  // recomputation queries in flight
};

}  // namespace wvm

#endif  // WVM_CORE_RV_H_
