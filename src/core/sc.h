#ifndef WVM_CORE_SC_H_
#define WVM_CORE_SC_H_

#include <string>

#include "core/warehouse.h"

namespace wvm {

/// Section 1.2 — the "store copies" strategy (SC): the warehouse keeps
/// up-to-date replicas of every base relation used by the view, applies
/// each incoming update to its replica, and evaluates the incremental
/// query V<U> locally against the replicas. No query is ever sent to the
/// source, so no anomaly can arise; the price is warehouse storage for all
/// base data and replica maintenance per update.
///
/// The delta applied is V<U> evaluated on the post-update replica state,
/// which by Lemma B.2 equals V[after] - V[before]; SC therefore tracks the
/// source state-for-state (it is complete, not merely strongly
/// consistent).
class StoreCopies : public ViewMaintainer {
 public:
  explicit StoreCopies(ViewDefinitionPtr view)
      : ViewMaintainer(std::move(view)) {}

  std::string name() const override { return "sc"; }

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;

  const Catalog& copies() const { return copies_; }

  /// Total positive tuples across all replicas — the storage overhead this
  /// strategy pays (used by the comparison benchmarks).
  int64_t ReplicaTupleCount() const;

  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;

 private:
  /// SC's recoverable state: MV plus the base-relation replicas.
  struct Snapshot : MaintainerSnapshot {
    Catalog copies;
  };

  Catalog copies_;
};

}  // namespace wvm

#endif  // WVM_CORE_SC_H_
