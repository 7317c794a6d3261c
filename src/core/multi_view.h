#ifndef WVM_CORE_MULTI_VIEW_H_
#define WVM_CORE_MULTI_VIEW_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/warehouse.h"

namespace wvm {

/// Options of the multi-view warehouse layer.
struct MultiViewOptions {
  /// Cross-view delta-query deduplication (shared maintenance). When on,
  /// the compensating queries all children are about to send within one
  /// update event are collected, their terms keyed by the sign-folded
  /// structural TermSignature, and each distinct term is sent to the source
  /// ONCE in a single shared query; the answer is fanned back to every
  /// subscribed child with its own sign product applied. Off by default:
  /// each child's query goes out verbatim, as in Section 7's "ECA is simply
  /// applied to each view separately".
  bool dedup = false;
};

/// A warehouse hosting several materialized views over the same source —
/// Section 7: "in a warehouse consisting of multiple views where each view
/// is over data from a single source, ECA is simply applied to each view
/// separately".
///
/// Each child maintainer runs its own algorithm over its own view. Every
/// update notification is fanned out to all children within the same
/// atomic event (so all views observe the same update order); answers are
/// routed back to the child(ren) subscribed to the query. Children share
/// the warehouse's query-id space and channels, so the cost meter reflects
/// the combined traffic.
///
/// With MultiViewOptions::dedup the layer adds shared maintenance: because
/// every term is linear in each operand, two terms that agree up to sign on
/// their view structure and bound tuples have answers equal up to a scalar,
/// so one source round trip serves every view that needs the shape. The
/// source sees one query with the distinct normalized terms; each child
/// receives a private answer indistinguishable from the one its own query
/// would have produced, so child algorithms (and their correctness
/// arguments) are untouched. Terms saved this way are metered through
/// WarehouseContext::RecordDedupedTerms, beside the paper's M/B.
///
/// The aggregate exposes the FIRST child's view through the ViewMaintainer
/// interface (so single-view tooling keeps working) and each child
/// individually through child().
class MultiViewWarehouse : public ViewMaintainer {
 public:
  /// Pre: at least one child.
  explicit MultiViewWarehouse(
      std::vector<std::unique_ptr<ViewMaintainer>> children,
      const MultiViewOptions& options = MultiViewOptions());

  std::string name() const override {
    return options_.dedup ? "multi-view+dedup" : "multi-view";
  }

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;
  Status OnBatch(const std::vector<Update>& batch,
                 WarehouseContext* ctx) override;
  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override;
  bool IsQuiescent() const override;
  void RecordViewDeltas() override {
    ViewMaintainer::RecordViewDeltas();
    children_.front()->RecordViewDeltas();
  }

  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

  size_t num_children() const { return children_.size(); }
  const ViewMaintainer& child(size_t i) const { return *children_[i]; }

 private:
  // Forwards a child's sends through the outer context while recording
  // which child owns each query id (and, under dedup, buffering the query
  // for the end-of-event flush instead of sending it).
  class RoutingContext;

  /// One child's stake in one outgoing query. For a pass-through route the
  /// child simply receives the answer verbatim; for a shared route, `terms`
  /// says how to rebuild the child's private answer: per original term (in
  /// the child's term order), which shared term carries its normalized
  /// answer, the sign product to rescale by, and the delta tag the child's
  /// algorithm expects to see echoed.
  struct TermSub {
    size_t shared_term;
    int sign;
    uint64_t delta_tag;
  };
  struct Subscriber {
    size_t child;
    uint64_t query_id;
    uint64_t update_id;
    std::vector<TermSub> terms;
  };
  struct QueryRoute {
    bool shared = false;
    std::vector<Subscriber> subscribers;
  };

  // Checkpoint of the whole multi-view state (defined in the .cc).
  struct Snapshot;

  Status Dispatch(size_t child_index,
                  const std::function<Status(ViewMaintainer*,
                                             WarehouseContext*)>& body,
                  WarehouseContext* ctx);

  /// End-of-event flush under dedup: merges the buffered queries into one
  /// shared query of distinct normalized terms (or forwards a lone query
  /// untouched), records the route, meters the terms saved, and sends.
  void FlushShared(WarehouseContext* ctx);

  std::vector<std::unique_ptr<ViewMaintainer>> children_;
  MultiViewOptions options_;
  /// query id -> route. Queries outlive events (answers arrive later), so
  /// this is the long-lived lookup structure on the answer hot path; routes
  /// are erased when their answer is consumed.
  FlatKeyMap<QueryRoute> routes_;
  /// Queries buffered during the current update event (dedup only).
  std::vector<std::pair<size_t, Query>> pending_;
  bool collecting_ = false;
};

}  // namespace wvm

#endif  // WVM_CORE_MULTI_VIEW_H_
