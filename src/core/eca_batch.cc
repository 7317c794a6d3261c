#include "core/eca_batch.h"

namespace wvm {

Status EcaBatch::OnBatch(const std::vector<Update>& batch,
                         WarehouseContext* ctx) {
  if (batch.empty()) {
    return Status::OK();
  }
  // Updates to relations outside the view contribute nothing (their
  // substitutions vanish), so they can stay in the batch harmlessly.
  Query base(0, batch.back().id, {Term::FromView(view_)});
  Query q = base.InclusionExclusionSubstitute(batch);
  if (q.empty()) {
    return Status::OK();
  }
  Query tagged(ctx->NextQueryId(), batch.back().id, {});
  for (Term t : q.terms()) {
    t.set_delta_update_id(batch.back().id);
    tagged.AddTerm(std::move(t));
  }
  uqs_.Compensate(batch, &tagged);
  return SendAndTrack(std::move(tagged), ctx);
}

}  // namespace wvm
