#ifndef WVM_CORE_WAREHOUSE_H_
#define WVM_CORE_WAREHOUSE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/cost_meter.h"
#include "channel/message.h"
#include "transport/transport_channel.h"
#include "common/result.h"
#include "query/catalog.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "query/view_def.h"

namespace wvm {

/// Services a maintenance algorithm may use while processing a warehouse
/// event: allocating query ids and sending queries to the source.
class WarehouseContext {
 public:
  virtual ~WarehouseContext() = default;
  virtual uint64_t NextQueryId() = 0;
  virtual void SendQuery(Query query) = 0;
  /// Maintainers that install several per-update deltas within one atomic
  /// event (LCA) call this after each installation, so every intermediate
  /// view state is observable to the state log — the granularity the
  /// completeness definition of Section 3.1 speaks about.
  virtual void NotifyViewChanged() {}
  /// The multi-view shared-maintenance layer reports how many query terms
  /// it deduplicated away within one event. Diagnostics beside M/B; the
  /// default ignores it (single-view contexts never dedup).
  virtual void RecordDedupedTerms(int64_t terms) { (void)terms; }
};

/// A deep copy of a maintainer's full state, taken at a checkpoint and
/// restored after a crash. The base carries what every maintainer has — the
/// materialized view — and each algorithm subclasses it with its own
/// bookkeeping (UQS, COLLECT progress, pending buffers). Relations are
/// copy-on-write underneath, so snapshots are cheap to take and hold.
struct MaintainerSnapshot {
  virtual ~MaintainerSnapshot() = default;
  Relation mv;
};

/// A view-maintenance algorithm running at the warehouse. The simulator
/// drives it with exactly the two warehouse event types of Section 3:
/// W_up (an update notification arrived) and W_ans (a query answer
/// arrived). Everything a subclass does inside one callback is one atomic
/// event.
class ViewMaintainer {
 public:
  explicit ViewMaintainer(ViewDefinitionPtr view) : view_(std::move(view)) {}
  virtual ~ViewMaintainer() = default;

  ViewMaintainer(const ViewMaintainer&) = delete;
  ViewMaintainer& operator=(const ViewMaintainer&) = delete;

  virtual std::string name() const = 0;

  /// Sets the initial materialized view to V over the initial source state
  /// (the paper assumes V[ws_0] = V[ss_0]). Subclasses that keep extra
  /// state (ECA-Key's working copy, SC's base copies) extend this.
  virtual Status Initialize(const Catalog& initial_source_state);

  /// W_up: an update notification arrived.
  virtual Status OnUpdate(const Update& u, WarehouseContext* ctx) = 0;

  /// A batched notification arrived (Section 7 extension). The default
  /// processes the batch as consecutive single updates within one atomic
  /// event, which is correct for the whole ECA family; EcaBatch overrides
  /// this with a single inclusion-exclusion query.
  virtual Status OnBatch(const std::vector<Update>& batch,
                         WarehouseContext* ctx);

  /// W_ans: the answer to an earlier query arrived.
  virtual Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) = 0;

  /// Current contents of the materialized view MV.
  const Relation& view_contents() const { return mv_; }
  const ViewDefinitionPtr& view_def() const { return view_; }

  /// Starts keeping the net change to MV since the last TakeViewDelta(),
  /// for the consistency oracle's state log. Off by default, and then no
  /// delta is formed; the simulation turns it on before Initialize when it
  /// records states. Wrappers forward it to the child whose view they
  /// expose.
  virtual void RecordViewDeltas() { record_deltas_ = true; }

  /// The net change to MV since the previous call (since the empty view,
  /// for the first), leaving none pending. Empty unless RecordViewDeltas()
  /// was called.
  Relation TakeViewDelta();

  /// True when the maintainer has no outstanding bookkeeping (empty UQS,
  /// no buffered deltas). Used by tests to assert clean quiescence.
  virtual bool IsQuiescent() const { return true; }

  /// Deep-copies the maintainer's full state for a recovery checkpoint.
  /// Subclasses with bookkeeping beyond MV override both snapshot hooks
  /// with a MaintainerSnapshot subclass carrying it.
  virtual std::shared_ptr<const MaintainerSnapshot> SnapshotState() const {
    auto snap = std::make_shared<MaintainerSnapshot>();
    snap->mv = mv_;
    return snap;
  }

  /// Restores state captured by SnapshotState() (same dynamic type).
  virtual Status RestoreState(const MaintainerSnapshot& snapshot) {
    ReplaceView(snapshot.mv);
    return Status::OK();
  }

  /// Models a crash WITHOUT recovery: the materialized view survives (it
  /// lives on warehouse disk in the paper's setting) but all volatile
  /// bookkeeping — UQS, COLLECT progress, pending buffers — is lost. Used
  /// by the anomaly demonstrations; the default has nothing volatile.
  virtual void LoseVolatileState() {}

 protected:
  /// Builds the single-term query V<u> tagged with u.id, or nullopt when
  /// the update does not involve any view relation.
  std::optional<Term> ViewSubstituted(const Update& u) const;

  /// The only two ways MV changes. InstallDelta adds a signed delta in
  /// O(|delta|). ReplaceView swaps in a whole view (recomputation, a
  /// working-copy install, a checkpoint restore); while deltas are recorded
  /// it diffs the new view against the old one, in O(|V|).
  void InstallDelta(const Relation& delta);
  void ReplaceView(Relation view);

  /// For wrappers exposing a child's view as their own: brings MV level
  /// with the child's. While deltas are recorded the child's delta is
  /// installed (no diff); otherwise MV shares the child's storage.
  void MirrorView(ViewMaintainer& child);

  ViewDefinitionPtr view_;

 private:
  Relation mv_;
  bool record_deltas_ = false;
  Relation unrecorded_;  // net change to mv_ since the last TakeViewDelta
};

/// The warehouse site: receives the single in-order stream of source
/// messages, dispatches to the maintenance algorithm, and sends queries
/// through the query channel while metering them. The query channel is a
/// TransportChannel: a plain FIFO channel by default, a faulty or
/// protocol-protected link when the simulation injects faults.
class Warehouse : public WarehouseContext {
 public:
  Warehouse(std::unique_ptr<ViewMaintainer> maintainer,
            TransportChannel<QueryMessage>* to_source, CostMeter* meter);

  Status Initialize(const Catalog& initial_source_state) {
    return maintainer_->Initialize(initial_source_state);
  }

  /// Processes one incoming message (one atomic warehouse event).
  Status HandleMessage(const SourceMessage& message);

  uint64_t NextQueryId() override { return next_query_id_++; }
  void SendQuery(Query query) override;
  void NotifyViewChanged() override {
    if (view_observer_) {
      view_observer_();
    }
  }
  void RecordDedupedTerms(int64_t terms) override {
    // Replayed events re-deduplicate the queries they deduplicated the
    // first time; like SendQuery, replay must not meter them again.
    if (!replaying_) {
      meter_->RecordDedupedTerms(terms);
    }
  }

  /// Invoked whenever a maintainer reports an intermediate view change;
  /// the simulation uses it to snapshot mid-event states.
  void SetViewObserver(std::function<void()> observer) {
    view_observer_ = std::move(observer);
  }

  ViewMaintainer& maintainer() { return *maintainer_; }
  const ViewMaintainer& maintainer() const { return *maintainer_; }

  /// Recovery support: the query-id counter is part of the checkpointed
  /// warehouse state (replayed events must re-allocate the very ids they
  /// allocated the first time).
  uint64_t next_query_id() const { return next_query_id_; }
  void set_next_query_id(uint64_t id) { next_query_id_ = id; }

  /// While replaying the inbound journal after a restart, the maintainer
  /// re-executes events whose outgoing queries already went to the wire
  /// (they sit in the outbound journal and the endpoint re-syncs them), so
  /// SendQuery must neither meter nor transmit — replay only rebuilds
  /// in-memory state.
  void set_replaying(bool replaying) { replaying_ = replaying; }

 private:
  std::unique_ptr<ViewMaintainer> maintainer_;
  TransportChannel<QueryMessage>* to_source_;
  CostMeter* meter_;
  std::function<void()> view_observer_;
  uint64_t next_query_id_ = 1;
  bool replaying_ = false;
};

}  // namespace wvm

#endif  // WVM_CORE_WAREHOUSE_H_
