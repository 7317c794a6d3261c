#include "core/warehouse.h"

#include <utility>

namespace wvm {

Status ViewMaintainer::Initialize(const Catalog& initial_source_state) {
  WVM_ASSIGN_OR_RETURN(Relation view, EvaluateView(view_, initial_source_state));
  ReplaceView(std::move(view));
  return Status::OK();
}

namespace {

// *into += delta, sharing delta's storage when nothing is pending yet.
void Accumulate(Relation* into, const Relation& delta) {
  if (into->IsEmpty()) {
    *into = delta;
  } else {
    into->Add(delta);
  }
}

}  // namespace

Relation ViewMaintainer::TakeViewDelta() {
  return std::exchange(unrecorded_, Relation());
}

void ViewMaintainer::InstallDelta(const Relation& delta) {
  mv_.Add(delta);
  if (record_deltas_) {
    Accumulate(&unrecorded_, delta);
  }
}

void ViewMaintainer::ReplaceView(Relation view) {
  if (record_deltas_) {
    Accumulate(&unrecorded_, view - mv_);
  }
  mv_ = std::move(view);
}

void ViewMaintainer::MirrorView(ViewMaintainer& child) {
  if (record_deltas_) {
    InstallDelta(child.TakeViewDelta());
  } else {
    ReplaceView(child.view_contents());
  }
}

Status ViewMaintainer::OnBatch(const std::vector<Update>& batch,
                               WarehouseContext* ctx) {
  for (const Update& u : batch) {
    WVM_RETURN_IF_ERROR(OnUpdate(u, ctx));
  }
  return Status::OK();
}

std::optional<Term> ViewMaintainer::ViewSubstituted(const Update& u) const {
  std::optional<Term> term = Term::FromView(view_).Substitute(u);
  if (term.has_value()) {
    term->set_delta_update_id(u.id);
  }
  return term;
}

Warehouse::Warehouse(std::unique_ptr<ViewMaintainer> maintainer,
                     TransportChannel<QueryMessage>* to_source,
                     CostMeter* meter)
    : maintainer_(std::move(maintainer)),
      to_source_(to_source),
      meter_(meter) {}

Status Warehouse::HandleMessage(const SourceMessage& message) {
  if (const auto* up = std::get_if<UpdateNotification>(&message)) {
    return maintainer_->OnUpdate(up->update, this);
  }
  if (const auto* batch = std::get_if<BatchNotification>(&message)) {
    return maintainer_->OnBatch(batch->updates, this);
  }
  return maintainer_->OnAnswer(std::get<AnswerMessage>(message), this);
}

void Warehouse::SendQuery(Query query) {
  if (replaying_) {
    // Journal replay: this query was metered, journaled, and transmitted
    // before the crash; re-executing the event only rebuilds local state.
    return;
  }
  QueryMessage message{std::move(query)};
  meter_->RecordQuery(message);
  to_source_->Send(std::move(message));
}

}  // namespace wvm
