#include "core/sc.h"

namespace wvm {

Status StoreCopies::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(ViewMaintainer::Initialize(initial_source_state));
  // Replicate only the relations the view uses.
  copies_ = Catalog();
  for (const BaseRelationDef& def : view_->relations()) {
    WVM_ASSIGN_OR_RETURN(const Relation* data,
                         initial_source_state.Get(def.name));
    WVM_RETURN_IF_ERROR(copies_.DefineWithData(def, *data));
  }
  return Status::OK();
}

Status StoreCopies::OnUpdate(const Update& u, WarehouseContext* ctx) {
  (void)ctx;
  if (!view_->RelationIndex(u.relation).ok()) {
    return Status::OK();  // irrelevant update
  }
  WVM_RETURN_IF_ERROR(copies_.Apply(u));
  std::optional<Term> term = ViewSubstituted(u);
  WVM_ASSIGN_OR_RETURN(Relation delta, EvaluateTerm(*term, copies_));
  InstallDelta(delta);
  return Status::OK();
}

Status StoreCopies::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)a;
  (void)ctx;
  return Status::Internal("StoreCopies never issues queries");
}

std::shared_ptr<const MaintainerSnapshot> StoreCopies::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->copies = copies_.Clone();
  return snap;
}

Status StoreCopies::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from SC");
  }
  ReplaceView(snap->mv);
  copies_ = snap->copies.Clone();
  return Status::OK();
}

int64_t StoreCopies::ReplicaTupleCount() const {
  int64_t total = 0;
  for (const std::string& name : copies_.Names()) {
    total += copies_.Get(name).value()->TotalPositive();
  }
  return total;
}

}  // namespace wvm
