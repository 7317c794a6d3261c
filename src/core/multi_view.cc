#include "core/multi_view.h"

#include <set>
#include <unordered_map>

#include "common/strings.h"

namespace wvm {

class MultiViewWarehouse::RoutingContext : public WarehouseContext {
 public:
  RoutingContext(MultiViewWarehouse* owner, size_t child_index,
                 WarehouseContext* outer)
      : owner_(owner), child_index_(child_index), outer_(outer) {}

  uint64_t NextQueryId() override { return outer_->NextQueryId(); }

  void SendQuery(Query query) override {
    if (owner_->collecting_) {
      // Shared maintenance: hold the query until every child has processed
      // this update, so the end-of-event flush can merge duplicate terms
      // across children into one source round trip.
      owner_->pending_.emplace_back(child_index_, std::move(query));
      return;
    }
    QueryRoute route;
    route.subscribers.push_back(
        {child_index_, query.id(), query.update_id(), {}});
    owner_->routes_.InsertOrAssign(query.id(), std::move(route));
    outer_->SendQuery(std::move(query));
  }

  void NotifyViewChanged() override { outer_->NotifyViewChanged(); }

 private:
  MultiViewWarehouse* owner_;
  size_t child_index_;
  WarehouseContext* outer_;
};

/// Full multi-view checkpoint: per-child snapshots (same order as
/// children_) plus the answer-routing table. The buffered-query state
/// (pending_, collecting_) exists only INSIDE one update event and
/// checkpoints are taken between events, so it is always empty here.
struct MultiViewWarehouse::Snapshot : MaintainerSnapshot {
  std::vector<std::shared_ptr<const MaintainerSnapshot>> children;
  std::vector<std::pair<uint64_t, QueryRoute>> routes;
};

MultiViewWarehouse::MultiViewWarehouse(
    std::vector<std::unique_ptr<ViewMaintainer>> children,
    const MultiViewOptions& options)
    : ViewMaintainer(children.front()->view_def()),
      children_(std::move(children)),
      options_(options) {}

Status MultiViewWarehouse::Initialize(const Catalog& initial_source_state) {
  for (std::unique_ptr<ViewMaintainer>& child : children_) {
    WVM_RETURN_IF_ERROR(child->Initialize(initial_source_state));
  }
  MirrorView(*children_.front());
  // Pre-warm the compiled delta plans of every distinct child view now,
  // instead of compiling on first touch in the maintenance hot loop. A view
  // with few relations gets all of its masks; wide views get the masks
  // maintenance actually reaches (single-update deltas bind one position,
  // batch inclusion-exclusion binds up to all of them).
  std::set<const ViewDefinition*> warmed;
  for (const std::unique_ptr<ViewMaintainer>& child : children_) {
    const ViewDefinition* view = child->view_def().get();
    if (!warmed.insert(view).second) {
      continue;
    }
    const size_t n = view->num_relations();
    if (n <= 6) {
      for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
        WVM_RETURN_IF_ERROR(view->CompiledPlanFor(mask).status());
      }
    } else {
      WVM_RETURN_IF_ERROR(view->CompiledPlanFor(0).status());
      for (size_t i = 0; i < n; ++i) {
        WVM_RETURN_IF_ERROR(view->CompiledPlanFor(uint64_t{1} << i).status());
      }
      // All n bits set; n >= 1, so the shift stays below 64.
      const uint64_t all_bound = ~uint64_t{0} >> (64 - n);
      WVM_RETURN_IF_ERROR(view->CompiledPlanFor(all_bound).status());
    }
  }
  return Status::OK();
}

Status MultiViewWarehouse::Dispatch(
    size_t child_index,
    const std::function<Status(ViewMaintainer*, WarehouseContext*)>& body,
    WarehouseContext* ctx) {
  RoutingContext routing(this, child_index, ctx);
  WVM_RETURN_IF_ERROR(body(children_[child_index].get(), &routing));
  if (child_index == 0) {
    MirrorView(*children_.front());
  }
  return Status::OK();
}

void MultiViewWarehouse::FlushShared(WarehouseContext* ctx) {
  if (pending_.empty()) {
    return;
  }
  std::vector<std::pair<size_t, Query>> pending = std::move(pending_);
  pending_.clear();
  if (pending.size() == 1) {
    // Only one child queried for this update: nothing to share. Forward
    // the query verbatim so the wire traffic is identical to dedup off.
    Query& q = pending.front().second;
    QueryRoute route;
    route.subscribers.push_back(
        {pending.front().first, q.id(), q.update_id(), {}});
    routes_.InsertOrAssign(q.id(), std::move(route));
    ctx->SendQuery(std::move(q));
    return;
  }
  // Merge: one shared query holding each distinct normalized term once.
  // Every child's stake is recorded as (shared term index, sign product,
  // delta tag) per original term, in the child's own term order, so its
  // private answer can be rebuilt exactly as if its query had been sent.
  std::vector<Term> shared_terms;
  std::unordered_map<std::string, size_t> index_by_signature;
  QueryRoute route;
  route.shared = true;
  int64_t total_terms = 0;
  for (std::pair<size_t, Query>& entry : pending) {
    const Query& q = entry.second;
    Subscriber sub;
    sub.child = entry.first;
    sub.query_id = q.id();
    sub.update_id = q.update_id();
    for (const Term& t : q.terms()) {
      ++total_terms;
      int sign = 0;
      Term normalized = t.Normalized(&sign);
      auto [it, inserted] = index_by_signature.emplace(
          TermSignature(normalized), shared_terms.size());
      if (inserted) {
        shared_terms.push_back(std::move(normalized));
      }
      sub.terms.push_back({it->second, sign, t.delta_update_id()});
    }
    route.subscribers.push_back(std::move(sub));
  }
  const int64_t saved =
      total_terms - static_cast<int64_t>(shared_terms.size());
  if (saved > 0) {
    ctx->RecordDedupedTerms(saved);
  }
  const uint64_t shared_id = ctx->NextQueryId();
  const uint64_t update_id = pending.front().second.update_id();
  routes_.InsertOrAssign(shared_id, std::move(route));
  ctx->SendQuery(Query(shared_id, update_id, std::move(shared_terms)));
}

Status MultiViewWarehouse::OnUpdate(const Update& u, WarehouseContext* ctx) {
  collecting_ = options_.dedup;
  for (size_t i = 0; i < children_.size(); ++i) {
    Status status = Dispatch(
        i,
        [&u](ViewMaintainer* child, WarehouseContext* routing) {
          return child->OnUpdate(u, routing);
        },
        ctx);
    if (!status.ok()) {
      collecting_ = false;
      pending_.clear();
      return status;
    }
  }
  collecting_ = false;
  FlushShared(ctx);
  return Status::OK();
}

Status MultiViewWarehouse::OnBatch(const std::vector<Update>& batch,
                                   WarehouseContext* ctx) {
  collecting_ = options_.dedup;
  for (size_t i = 0; i < children_.size(); ++i) {
    Status status = Dispatch(
        i,
        [&batch](ViewMaintainer* child, WarehouseContext* routing) {
          return child->OnBatch(batch, routing);
        },
        ctx);
    if (!status.ok()) {
      collecting_ = false;
      pending_.clear();
      return status;
    }
  }
  collecting_ = false;
  FlushShared(ctx);
  return Status::OK();
}

Status MultiViewWarehouse::OnAnswer(const AnswerMessage& a,
                                    WarehouseContext* ctx) {
  // Move the route out before dispatching: a child's OnAnswer may send new
  // queries, which insert into routes_ and would invalidate references.
  QueryRoute route;
  if (!routes_.Take(a.query_id, &route)) {
    return Status::Internal(
        StrCat("answer for query ", a.query_id, " owned by no view"));
  }
  if (!route.shared) {
    return Dispatch(
        route.subscribers.front().child,
        [&a](ViewMaintainer* child, WarehouseContext* routing) {
          return child->OnAnswer(a, routing);
        },
        ctx);
  }
  for (const Subscriber& sub : route.subscribers) {
    AnswerMessage mine;
    mine.query_id = sub.query_id;
    mine.update_id = sub.update_id;
    for (const TermSub& ts : sub.terms) {
      mine.term_delta_tags.push_back(ts.delta_tag);
      mine.per_term.push_back(a.per_term[ts.shared_term].Scaled(ts.sign));
    }
    WVM_RETURN_IF_ERROR(Dispatch(
        sub.child,
        [&mine](ViewMaintainer* child, WarehouseContext* routing) {
          return child->OnAnswer(mine, routing);
        },
        ctx));
  }
  return Status::OK();
}

bool MultiViewWarehouse::IsQuiescent() const {
  for (const std::unique_ptr<ViewMaintainer>& child : children_) {
    if (!child->IsQuiescent()) {
      return false;
    }
  }
  return routes_.empty();
}

std::shared_ptr<const MaintainerSnapshot> MultiViewWarehouse::SnapshotState()
    const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  for (const std::unique_ptr<ViewMaintainer>& child : children_) {
    snap->children.push_back(child->SnapshotState());
  }
  routes_.ForEach([&snap](uint64_t id, const QueryRoute& route) {
    snap->routes.emplace_back(id, route);
  });
  return snap;
}

Status MultiViewWarehouse::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr || snap->children.size() != children_.size()) {
    return Status::Internal("multi-view restore from foreign snapshot");
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    WVM_RETURN_IF_ERROR(children_[i]->RestoreState(*snap->children[i]));
  }
  routes_.Clear();
  for (const std::pair<uint64_t, QueryRoute>& entry : snap->routes) {
    routes_.InsertOrAssign(entry.first, entry.second);
  }
  pending_.clear();
  collecting_ = false;
  MirrorView(*children_.front());
  return Status::OK();
}

void MultiViewWarehouse::LoseVolatileState() {
  for (std::unique_ptr<ViewMaintainer>& child : children_) {
    child->LoseVolatileState();
  }
  routes_.Clear();
  pending_.clear();
  collecting_ = false;
}

}  // namespace wvm
