#include "core/deferred.h"

namespace wvm {

Status Deferred::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(inner_->Initialize(initial_source_state));
  MirrorView(*inner_);
  return Status::OK();
}

Status Deferred::OnUpdate(const Update& u, WarehouseContext* ctx) {
  buffer_.push_back(u);
  if (threshold_ > 0 && static_cast<int>(buffer_.size()) >= threshold_) {
    return Flush(ctx);
  }
  return Status::OK();
}

Status Deferred::OnBatch(const std::vector<Update>& batch,
                         WarehouseContext* ctx) {
  buffer_.insert(buffer_.end(), batch.begin(), batch.end());
  if (threshold_ > 0 && static_cast<int>(buffer_.size()) >= threshold_) {
    return Flush(ctx);
  }
  return Status::OK();
}

Status Deferred::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  WVM_RETURN_IF_ERROR(inner_->OnAnswer(a, ctx));
  MirrorView(*inner_);
  return Status::OK();
}

Status Deferred::Flush(WarehouseContext* ctx) {
  if (buffer_.empty()) {
    return Status::OK();
  }
  std::vector<Update> pending;
  pending.swap(buffer_);
  WVM_RETURN_IF_ERROR(inner_->OnBatch(pending, ctx));
  MirrorView(*inner_);
  return Status::OK();
}

std::shared_ptr<const MaintainerSnapshot> Deferred::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->inner = inner_->SnapshotState();
  snap->buffer = buffer_;
  return snap;
}

Status Deferred::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from Deferred");
  }
  WVM_RETURN_IF_ERROR(inner_->RestoreState(*snap->inner));
  buffer_ = snap->buffer;
  MirrorView(*inner_);
  return Status::OK();
}

void Deferred::LoseVolatileState() {
  buffer_.clear();
  inner_->LoseVolatileState();
}

}  // namespace wvm
