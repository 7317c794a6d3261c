#include "core/lca.h"

namespace wvm {

Status Lca::Initialize(const Catalog& initial_source_state) {
  return ViewMaintainer::Initialize(initial_source_state);
}

Status Lca::OnUpdate(const Update& u, WarehouseContext* ctx) {
  std::optional<Term> term = ViewSubstituted(u);
  if (!term.has_value()) {
    return Status::OK();  // irrelevant update: no delta to track
  }
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});
  for (const auto& [id, pending] : uqs_) {
    q.SubtractTerms(pending.Substitute(u));
  }

  pending_.emplace(u.id, PendingDelta{Relation(view_->output_schema()), 0});
  for (const Term& t : q.terms()) {
    auto it = pending_.find(t.delta_update_id());
    if (it == pending_.end()) {
      return Status::Internal("compensating term tags unknown update");
    }
    ++it->second.open_terms;
  }
  uqs_.emplace(q.id(), q);
  ctx->SendQuery(std::move(q));
  return Status::OK();
}

Status Lca::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  if (uqs_.erase(a.query_id) == 0) {
    return Status::Internal("answer for unknown query id");
  }
  if (a.term_delta_tags.size() != a.per_term.size()) {
    return Status::Internal("answer tags misaligned with term results");
  }
  for (size_t i = 0; i < a.per_term.size(); ++i) {
    auto it = pending_.find(a.term_delta_tags[i]);
    if (it == pending_.end()) {
      return Status::Internal("answer term tags unknown update");
    }
    it->second.delta.Add(a.per_term[i]);
    --it->second.open_terms;
    if (it->second.open_terms < 0) {
      return Status::Internal("more term answers than terms sent");
    }
  }
  ApplyCompletedPrefix(ctx);
  return Status::OK();
}

std::shared_ptr<const MaintainerSnapshot> Lca::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->uqs = uqs_;
  snap->pending = pending_;
  return snap;
}

Status Lca::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from LCA");
  }
  ReplaceView(snap->mv);
  uqs_ = snap->uqs;
  pending_ = snap->pending;
  return Status::OK();
}

void Lca::ApplyCompletedPrefix(WarehouseContext* ctx) {
  // pending_ is ordered by update id; update ids are assigned in source
  // execution order and notifications are delivered in order, so map order
  // is the order the deltas must be applied in.
  while (!pending_.empty() && pending_.begin()->second.open_terms == 0) {
    InstallDelta(pending_.begin()->second.delta);
    pending_.erase(pending_.begin());
    if (ctx != nullptr) {
      // Expose each per-update state V[ss_i]: this is what makes LCA
      // complete rather than merely strongly consistent.
      ctx->NotifyViewChanged();
    }
  }
}

}  // namespace wvm
