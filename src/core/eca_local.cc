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
    PendingOp op;
    op.kind = PendingOp::Kind::kDelta;
    op.delta = std::move(delta);
    pending_.emplace(u.id, std::move(op));
    ApplyAndMaybeInstall();
    return Status::OK();
  }

  if (IsLocalDelete(u)) {
    ++local_updates_;
    PendingOp op;
    op.kind = PendingOp::Kind::kKeyDelete;
    WVM_ASSIGN_OR_RETURN(op.key_constraints, view_->KeyConstraintsFor(u));
    pending_.emplace(u.id, std::move(op));
    ApplyAndMaybeInstall();
    return Status::OK();
  }

  // Non-local: compensated query exactly as in ECA, with delta tags.
  ++remote_updates_;
  std::optional<Term> term = ViewSubstituted(u);
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});
  for (const auto& [id, pending_query] : uqs_) {
    q.SubtractTerms(pending_query.Substitute(u));
  }
  PendingOp op;
  op.kind = PendingOp::Kind::kDelta;
  op.delta = Relation(view_->output_schema());
  pending_.emplace(u.id, std::move(op));

  // Fully-bound terms are state-independent: fold them into their target
  // delta right away instead of shipping them (same optimization as ECA).
  Query remote(q.id(), q.update_id(), {});
  for (const Term& t : q.terms()) {
    auto it = pending_.find(t.delta_update_id());
    if (it == pending_.end()) {
      return Status::Internal("compensating term tags unknown update");
    }
    if (t.NumBound() == view_->num_relations()) {
      WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, Catalog()));
      it->second.delta.Add(part);
    } else {
      ++it->second.open_terms;
      remote.AddTerm(t);
    }
  }
  if (remote.empty()) {
    ApplyAndMaybeInstall();
    return Status::OK();
  }
  uqs_.emplace(q.id(), std::move(q));
  ctx->SendQuery(std::move(remote));
  return Status::OK();
}

Status EcaLocal::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)ctx;
  if (uqs_.erase(a.query_id) == 0) {
    return Status::Internal("answer for unknown query id");
  }
  for (size_t i = 0; i < a.per_term.size(); ++i) {
    auto it = pending_.find(a.term_delta_tags[i]);
    if (it == pending_.end()) {
      return Status::Internal("answer term tags unknown update");
    }
    it->second.delta.Add(a.per_term[i]);
    --it->second.open_terms;
  }
  ApplyAndMaybeInstall();
  return Status::OK();
}

void EcaLocal::ApplyAndMaybeInstall() {
  while (!pending_.empty() && pending_.begin()->second.open_terms == 0) {
    PendingOp& op = pending_.begin()->second;
    if (op.kind == PendingOp::Kind::kDelta) {
      staged_.Add(op.delta);
    } else {
      std::vector<Tuple> doomed;
      for (const auto& [t, c] : staged_.entries()) {
        (void)c;
        bool match = true;
        for (const auto& [column, value] : op.key_constraints) {
          if (!(t.value(column) == value)) {
            match = false;
            break;
          }
        }
        if (match) {
          doomed.push_back(t);
        }
      }
      for (const Tuple& t : doomed) {
        staged_.Insert(t, -staged_.CountOf(t));
      }
    }
    pending_.erase(pending_.begin());
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
  uqs_.clear();
  pending_.clear();
  staged_ = view_contents();
}

}  // namespace wvm
