#include "multisource/ms_eca.h"

#include "common/strings.h"
#include "query/evaluator.h"

namespace wvm {

Status MsEca::Initialize(const Catalog& initial) {
  WVM_RETURN_IF_ERROR(MsMaintainer::Initialize(initial));
  collect_ = Relation(view_->output_schema());
  // Full reset: Initialize doubles as the recovered-restart entry point
  // (genesis replay re-initializes and re-consumes the journals), so no
  // volatile bookkeeping may survive it.
  pending_.clear();
  return Status::OK();
}

Status MsEca::OnUpdate(size_t source, const Update& u, MsContext* ctx) {
  std::optional<Term> term = Term::FromView(view_).Substitute(u);
  if (!term.has_value()) {
    return Status::OK();  // irrelevant update
  }
  term->set_delta_update_id(u.id);
  Query q(ctx->NextQueryId(), u.id, {std::move(*term)});

  // u overtakes every pending query still awaiting a fragment from u's
  // source: per-source FIFO guarantees that fragment will reflect u.
  for (auto& [id, pending] : pending_) {
    if (pending.awaiting_source.count(source) > 0) {
      Overtaken(u, &pending, &q);
    }
  }

  // Which relations must be fetched, grouped by owning source. Fully-bound
  // terms need nothing.
  std::map<size_t, std::set<std::string>> needed;
  for (const Term& t : q.terms()) {
    const ViewDefinition& view = *t.view();
    for (size_t i = 0; i < view.num_relations(); ++i) {
      if (t.operands()[i].is_bound) {
        continue;
      }
      const std::string& name = view.relations()[i].name;
      WVM_ASSIGN_OR_RETURN(size_t owner, ctx->OwnerOf(name));
      needed[owner].insert(name);
    }
  }

  PendingQuery pending;
  pending.query = q;
  for (const auto& [owner, names] : needed) {
    FragmentRequest request;
    request.query_id = q.id();
    request.relations.assign(names.begin(), names.end());
    for (const std::string& n : names) {
      pending.missing.insert(n);
    }
    pending.awaiting_source.insert(owner);
    ctx->RequestFragments(owner, std::move(request));
  }

  if (pending.missing.empty()) {
    // Fully bound: evaluate right away.
    WVM_RETURN_IF_ERROR(Fold(&pending));
    MaybeInstall();
    return Status::OK();
  }
  pending_.emplace(q.id(), std::move(pending));
  return Status::OK();
}

Status MsEca::OnFragments(size_t source, const FragmentAnswer& answer,
                          MsContext* ctx) {
  (void)ctx;
  auto it = pending_.find(answer.query_id);
  if (it == pending_.end()) {
    return Status::Internal("fragments for unknown query");
  }
  PendingQuery& pending = it->second;
  for (const auto& [name, data] : answer.fragments) {
    if (pending.missing.erase(name) == 0) {
      return Status::Internal(StrCat("unexpected fragment '", name, "'"));
    }
    WVM_RETURN_IF_ERROR(pending.fragments.DefineWithData(
        BaseRelationDef{name, data.schema()}, data));
  }
  pending.awaiting_source.erase(source);
  if (pending.missing.empty()) {
    WVM_RETURN_IF_ERROR(Fold(&pending));
    pending_.erase(it);
    MaybeInstall();
  }
  return Status::OK();
}

void MsEca::Overtaken(const Update& u, PendingQuery* pending, Query* q) {
  q->SubtractTerms(pending->query.Substitute(u));
}

Status MsEca::Fold(PendingQuery* pending) {
  WVM_ASSIGN_OR_RETURN(Relation delta,
                       EvaluateQuery(pending->query, pending->fragments));
  if (!pending->rewound.empty()) {
    // delta = Q[frags] - IncExc(Q, rewound)[frags]: the same snapshot
    // serves both the value and its rewind.
    Query rewind =
        pending->query.InclusionExclusionSubstitute(pending->rewound);
    WVM_ASSIGN_OR_RETURN(Relation correction,
                         EvaluateQuery(rewind, pending->fragments));
    delta.Add(correction.Negated());
  }
  collect_.Add(delta);
  return Status::OK();
}

void MsEca::MaybeInstall() {
  if (pending_.empty()) {
    mv_.Add(collect_);
    collect_.Clear();
  }
}

}  // namespace wvm
