#include "core/composite_eca.h"

namespace wvm {

Status CompositeEca::Initialize(const Catalog& initial_source_state) {
  WVM_ASSIGN_OR_RETURN(Relation view,
                       composite_->Evaluate(initial_source_state));
  ReplaceView(std::move(view));
  collect_ = Relation(composite_->output_schema());
  return Status::OK();
}

Query CompositeEca::BuildCompensatedQuery(const Update& u,
                                          uint64_t query_id) const {
  Query q(query_id, u.id, {});
  for (const CompositeBranch& branch : composite_->branches()) {
    std::optional<Term> term = Term::FromView(branch.view).Substitute(u);
    if (!term.has_value()) {
      continue;  // this branch does not mention u's relation
    }
    term->set_coefficient(branch.sign);
    term->set_delta_update_id(u.id);
    q.AddTerm(std::move(*term));
  }
  if (q.empty()) {
    return q;  // irrelevant to every branch
  }
  uqs_.Compensate(u, &q);
  return q;
}

}  // namespace wvm
