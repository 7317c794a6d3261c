#include "core/lca.h"

namespace wvm {

Status Lca::OnUpdate(const Update& u, WarehouseContext* ctx) {
  std::optional<Term> term = ViewSubstituted(u);
  if (!term.has_value()) {
    return Status::OK();  // irrelevant update: no delta to track
  }
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});
  uqs_.Compensate(u, &q);
  pending_.Open(u.id, Relation(view_->output_schema()));
  for (const Term& t : q.terms()) {
    WVM_RETURN_IF_ERROR(pending_.CountTerm(t.delta_update_id()));
  }
  uqs_.Add(q);
  ctx->SendQuery(std::move(q));
  return Status::OK();
}

Status Lca::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  WVM_RETURN_IF_ERROR(uqs_.Answer(a.query_id));
  WVM_RETURN_IF_ERROR(pending_.Fold(a));
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

void Lca::LoseVolatileState() {
  // MV persists; UQS and the deltas under assembly were in memory.
  uqs_.Clear();
  pending_.Clear();
}

void Lca::ApplyCompletedPrefix(WarehouseContext* ctx) {
  TaggedDeltas::Entry done;
  while (pending_.PopComplete(&done)) {
    InstallDelta(done.delta);
    if (ctx != nullptr) {
      // Expose each per-update state V[ss_i]: this is what makes LCA
      // complete rather than merely strongly consistent.
      ctx->NotifyViewChanged();
    }
  }
}

}  // namespace wvm
