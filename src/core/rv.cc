#include "core/rv.h"

#include "common/strings.h"

namespace wvm {

std::string RecomputeView::name() const {
  return StrCat("rv(s=", period_, ")");
}

Status RecomputeView::OnUpdate(const Update& u, WarehouseContext* ctx) {
  if (!view_->RelationIndex(u.relation).ok()) {
    return Status::OK();  // irrelevant update
  }
  if (++count_ < period_) {
    return Status::OK();
  }
  count_ = 0;
  Term full = Term::FromView(view_);
  full.set_delta_update_id(u.id);
  Query q(ctx->NextQueryId(), u.id, {std::move(full)});
  ++outstanding_;
  ctx->SendQuery(std::move(q));
  return Status::OK();
}

std::shared_ptr<const MaintainerSnapshot> RecomputeView::SnapshotState()
    const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->count = count_;
  snap->outstanding = outstanding_;
  return snap;
}

Status RecomputeView::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from RV");
  }
  ReplaceView(snap->mv);
  count_ = snap->count;
  outstanding_ = snap->outstanding;
  return Status::OK();
}

void RecomputeView::LoseVolatileState() {
  // MV persists; both counters were in memory.
  count_ = 0;
  outstanding_ = 0;
}

Status RecomputeView::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)ctx;
  // A recomputation sent before a bare crash may still arrive: it installs,
  // but the in-flight count forgot it.
  if (outstanding_ > 0) {
    --outstanding_;
  }
  // Replace, not merge: the answer is the whole view at some source state.
  ReplaceView(a.Sum());
  return Status::OK();
}

}  // namespace wvm
