#include "core/eca_key.h"

#include "common/strings.h"

namespace wvm {

Status EcaKey::Initialize(const Catalog& initial_source_state) {
  // The key condition comes from the declared SchemaConstraints: every base
  // relation needs a KeySpec whose attributes the projection retains.
  if (!view_->KeysProjected()) {
    return Status::FailedPrecondition(
        StrCat("view ", view_->name(),
               " does not retain a declared key of every base relation "
               "(constraints: ", view_->constraints().ToString(),
               "); ECA-Key is inapplicable (Section 5.4)"));
  }
  WVM_RETURN_IF_ERROR(ViewMaintainer::Initialize(initial_source_state));
  collect_ = view_contents();  // working copy, NOT the empty set
  return Status::OK();
}

bool EcaKey::SupersededByKeyDelete(const Tuple& t,
                                   uint64_t answer_update_id) const {
  for (const LoggedKeyDelete& kd : key_delete_log_) {
    // Only a delete newer than the answer's update supersedes it.
    if (kd.update_id > answer_update_id && RowMatches(t, kd.constraints)) {
      return true;
    }
  }
  return false;
}

void EcaKey::MaybeInstall() {
  if (uqs_.empty()) {
    ReplaceView(collect_);  // COLLECT is not reset: it stays the working copy
    // No in-flight answer can predate the logged deletes anymore.
    key_delete_log_.clear();
  }
}

Status EcaKey::OnUpdate(const Update& u, WarehouseContext* ctx) {
  if (!view_->RelationIndex(u.relation).ok()) {
    return Status::OK();  // irrelevant update
  }
  if (u.kind == UpdateKind::kDelete) {
    // Handled locally: no query to the source.
    WVM_ASSIGN_OR_RETURN(ColumnValues key, view_->KeyConstraintsFor(u));
    collect_.Add(KeyDeleteDelta(collect_, key));
    if (!uqs_.empty()) {
      // A pending insert answer may still carry this key (it is bound
      // inside the query); remember the delete so the re-add is ignored.
      key_delete_log_.push_back(LoggedKeyDelete{u.id, std::move(key)});
    }
    MaybeInstall();
    return Status::OK();
  }
  // Insert: plain V<u> query, no compensation.
  std::optional<Term> term = ViewSubstituted(u);
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});
  uqs_.insert(q.id());
  ctx->SendQuery(std::move(q));
  return Status::OK();
}

Status EcaKey::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)ctx;
  if (uqs_.erase(a.query_id) == 0) {
    return Status::Internal("answer for unknown query id");
  }
  const Relation sum = a.Sum();
  if (sum.HasNegative()) {
    return Status::Internal(
        "ECA-Key insert answers must be positive relations");
  }
  for (const auto& [t, c] : sum.entries()) {
    (void)c;
    // A tuple whose key was deleted after this answer's update is an
    // anomaly artifact (see LoggedKeyDelete).
    if (SupersededByKeyDelete(t, a.update_id)) {
      continue;
    }
    // Duplicate tuples are anomaly artifacts; in a keyed view each tuple is
    // unique, so add at most one copy (Section 5.4, rule 4).
    if (collect_.CountOf(t) == 0) {
      collect_.Insert(t, 1);
    }
  }
  MaybeInstall();
  return Status::OK();
}

std::shared_ptr<const MaintainerSnapshot> EcaKey::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->uqs = uqs_;
  snap->collect = collect_;
  snap->key_delete_log = key_delete_log_;
  return snap;
}

Status EcaKey::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from ECA-Key");
  }
  ReplaceView(snap->mv);
  uqs_ = snap->uqs;
  collect_ = snap->collect;
  key_delete_log_ = snap->key_delete_log;
  return Status::OK();
}

void EcaKey::LoseVolatileState() {
  // MV persists; the pending-query ids, the working copy, and the
  // key-delete log were volatile. The working copy restarts from MV.
  uqs_.clear();
  key_delete_log_.clear();
  collect_ = view_contents();
}

}  // namespace wvm
