#ifndef WVM_CORE_ECA_H_
#define WVM_CORE_ECA_H_

#include <map>
#include <string>

#include "core/uqs.h"
#include "core/warehouse.h"

namespace wvm {

/// Algorithm 5.2 — the Eager Compensating Algorithm, the paper's central
/// contribution. Two mechanisms repair the anomalies of the basic
/// algorithm:
///
///  1. Compensating queries. When update U_i arrives while queries are
///     pending (the unanswered query set UQS is non-empty), every pending
///     Q_j will be evaluated at a source state that already reflects U_i.
///     The query sent for U_i is therefore
///
///         Q_i = V<U_i> - sum_{Q_j in UQS} Q_j<U_i>
///
///     which offsets, in advance ("eagerly"), the extra or missing tuples
///     the pending answers will contain.
///
///  2. COLLECT batching. Answers accumulate in a COLLECT relation and are
///     installed into MV only when UQS becomes empty; installing earlier
///     would expose states that are convergent but not consistent
///     (Section 5.2).
///
/// ECA is strongly consistent (Theorem B.1). Options expose the two
/// mechanisms for the ablation benchmarks.
class Eca : public ViewMaintainer {
 public:
  struct Options {
    /// Ablation: install every answer into MV immediately instead of
    /// batching in COLLECT. Convergent but not consistent.
    bool apply_immediately = false;
    /// Ablation: drop compensating queries. With batching still on this is
    /// "Basic + COLLECT"; incorrect under concurrency.
    bool compensate = true;
  };

  explicit Eca(ViewDefinitionPtr view)
      : ViewMaintainer(std::move(view)) {}
  Eca(ViewDefinitionPtr view, Options options)
      : ViewMaintainer(std::move(view)), options_(options) {}

  std::string name() const override;

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override { return uqs_.empty(); }

  /// The current unanswered query set, keyed by query id (exposed for
  /// tests that assert UQS evolution against the paper's examples).
  const std::map<uint64_t, Query>& uqs() const { return uqs_.queries(); }
  /// The COLLECT relation.
  const Relation& collect() const { return collect_; }

  /// ECA's recoverable state: MV plus the UQS and COLLECT progress.
  struct Snapshot : MaintainerSnapshot {
    UnansweredQueries uqs;
    Relation collect;
  };
  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

 protected:
  /// Builds Q_i = V<u> - sum_{Q_j in UQS} Q_j<u> (or just V<u> when
  /// compensation is disabled). Returns an empty query when the update is
  /// irrelevant to the view. Virtual so that CompositeEca can substitute a
  /// multi-branch V while inheriting the UQS/COLLECT machinery unchanged.
  virtual Query BuildCompensatedQuery(const Update& u,
                                      uint64_t query_id) const;

  /// Evaluates the fully-bound terms of `q` locally (their value does not
  /// depend on source state — Appendix D: "no compensating query needs to
  /// be sent since all data needed is already at the warehouse"), folds
  /// them into COLLECT, sends the remaining terms to the source, and
  /// registers the full query in UQS for future compensation. Installs
  /// COLLECT if nothing remains in flight.
  Status SendAndTrack(Query q, WarehouseContext* ctx);

  /// Installs COLLECT into MV when UQS is empty.
  void MaybeInstall();

  Options options_;
  UnansweredQueries uqs_;
  Relation collect_;
};

}  // namespace wvm

#endif  // WVM_CORE_ECA_H_
