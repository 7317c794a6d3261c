#include "core/eca_local.h"

namespace wvm {

Status EcaLocal::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(ViewMaintainer::Initialize(initial_source_state));
  staged_ = view_contents();
  return Status::OK();
}

bool EcaLocal::IsLocalDelete(const Update& u) const {
  return u.kind == UpdateKind::kDelete && view_->KeysProjected();
}

Status EcaLocal::OnUpdate(const Update& u, WarehouseContext* ctx) {
  if (!view_->RelationIndex(u.relation).ok()) {
    return Status::OK();  // irrelevant update
  }

  if (IsSingleRelationView()) {
    // pi(sigma(+-t)) is computable from the update alone: evaluate the
    // substituted term against an empty catalog (no unbound operand).
    ++local_updates_;
    std::optional<Term> term = ViewSubstituted(u);
    WVM_ASSIGN_OR_RETURN(Relation delta, EvaluateTerm(*term, Catalog()));
    pending_.Open(u.id, std::move(delta));
    ApplyAndMaybeInstall();
    return Status::OK();
  }

  if (IsLocalDelete(u)) {
    ++local_updates_;
    WVM_ASSIGN_OR_RETURN(ColumnValues key, view_->KeyConstraintsFor(u));
    pending_.OpenKeyDelete(u.id, std::move(key));
    ApplyAndMaybeInstall();
    return Status::OK();
  }

  // Non-local: compensated query exactly as in ECA, with delta tags.
  ++remote_updates_;
  std::optional<Term> term = ViewSubstituted(u);
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});
  uqs_.Compensate(u, &q);
  pending_.Open(u.id, Relation(view_->output_schema()));

  // Fully-bound terms are state-independent: fold them into their target
  // delta right away instead of shipping them (same optimization as ECA).
  Query remote(q.id(), q.update_id(), {});
  for (const Term& t : q.terms()) {
    if (t.NumBound() == view_->num_relations()) {
      WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, Catalog()));
      WVM_RETURN_IF_ERROR(pending_.AddLocal(t.delta_update_id(), part));
    } else {
      WVM_RETURN_IF_ERROR(pending_.CountTerm(t.delta_update_id()));
      remote.AddTerm(t);
    }
  }
  if (remote.empty()) {
    ApplyAndMaybeInstall();
    return Status::OK();
  }
  uqs_.Add(std::move(q));
  ctx->SendQuery(std::move(remote));
  return Status::OK();
}

Status EcaLocal::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)ctx;
  WVM_RETURN_IF_ERROR(uqs_.Answer(a.query_id));
  WVM_RETURN_IF_ERROR(pending_.Fold(a));
  ApplyAndMaybeInstall();
  return Status::OK();
}

void EcaLocal::ApplyAndMaybeInstall() {
  TaggedDeltas::Entry op;
  while (pending_.PopComplete(&op)) {
    if (op.key_delete.has_value()) {
      staged_.Add(KeyDeleteDelta(staged_, *op.key_delete));
    } else {
      staged_.Add(op.delta);
    }
  }
  if (uqs_.empty() && pending_.empty()) {
    ReplaceView(staged_);
  }
}

std::shared_ptr<const MaintainerSnapshot> EcaLocal::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->uqs = uqs_;
  snap->pending = pending_;
  snap->staged = staged_;
  return snap;
}

Status EcaLocal::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from ECA-Local");
  }
  ReplaceView(snap->mv);
  uqs_ = snap->uqs;
  pending_ = snap->pending;
  staged_ = snap->staged;
  return Status::OK();
}

void EcaLocal::LoseVolatileState() {
  // MV persists; UQS, the operation buffer, and the staged view were
  // volatile. The staged view restarts from MV.
  uqs_.Clear();
  pending_.Clear();
  staged_ = view_contents();
}

}  // namespace wvm
