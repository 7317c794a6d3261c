#include "query/composite_view.h"

#include "common/strings.h"
#include "query/evaluator.h"

namespace wvm {

Result<std::shared_ptr<const CompositeView>> CompositeView::Create(
    std::string name, std::vector<CompositeBranch> branches) {
  if (branches.empty()) {
    return Status::InvalidArgument("composite view needs at least one branch");
  }
  for (const CompositeBranch& b : branches) {
    if (b.view == nullptr) {
      return Status::InvalidArgument("null branch view");
    }
    if (b.sign != 1 && b.sign != -1) {
      return Status::InvalidArgument("branch sign must be +1 or -1");
    }
  }
  const Schema& first = branches.front().view->output_schema();
  for (const CompositeBranch& b : branches) {
    const Schema& schema = b.view->output_schema();
    if (schema.size() != first.size()) {
      return Status::InvalidArgument(
          StrCat("branch '", b.view->name(), "' output arity ", schema.size(),
                 " incompatible with ", first.size()));
    }
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema.attribute(i).type != first.attribute(i).type) {
        return Status::InvalidArgument(
            StrCat("branch '", b.view->name(), "' column ", i,
                   " type mismatch"));
      }
    }
  }
  auto composite = std::shared_ptr<CompositeView>(new CompositeView());
  composite->name_ = std::move(name);
  composite->branches_ = std::move(branches);
  composite->output_schema_ = first;
  return std::shared_ptr<const CompositeView>(std::move(composite));
}

bool CompositeView::References(const std::string& relation) const {
  for (const CompositeBranch& b : branches_) {
    if (b.view->RelationIndex(relation).ok()) {
      return true;
    }
  }
  return false;
}

Result<Relation> CompositeView::Evaluate(const Catalog& catalog) const {
  Relation out(output_schema_);
  for (const CompositeBranch& b : branches_) {
    Term term = Term::FromView(b.view);
    term.set_coefficient(b.sign);
    WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(term, catalog));
    out.Add(part);
  }
  return out;
}

Result<Relation> CompositeView::Delta(const Update& u,
                                      const Catalog& catalog) const {
  Relation out(output_schema_);
  for (const CompositeBranch& b : branches_) {
    std::optional<Term> term = Term::FromView(b.view).Substitute(u);
    if (!term.has_value()) {
      continue;
    }
    term->set_coefficient(b.sign);
    WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(*term, catalog));
    out.Add(part);
  }
  return out;
}

std::string CompositeView::ToString() const {
  std::string out = StrCat(name_, " =");
  for (size_t i = 0; i < branches_.size(); ++i) {
    out += branches_[i].sign > 0 ? (i == 0 ? " " : " + ") : " - ";
    out += StrCat("[", branches_[i].view->ToString(), "]");
  }
  return out;
}

}  // namespace wvm
