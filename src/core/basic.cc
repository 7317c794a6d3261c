#include "core/basic.h"

namespace wvm {

Status BasicIncremental::OnUpdate(const Update& u, WarehouseContext* ctx) {
  std::optional<Term> term = ViewSubstituted(u);
  if (!term.has_value()) {
    return Status::OK();  // update does not involve any view relation
  }
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});
  ctx->SendQuery(std::move(q));
  return Status::OK();
}

Status BasicIncremental::OnAnswer(const AnswerMessage& a,
                                  WarehouseContext* ctx) {
  (void)ctx;
  InstallDelta(a.Sum());
  return Status::OK();
}

}  // namespace wvm
