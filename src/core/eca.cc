#include "core/eca.h"

namespace wvm {

std::string Eca::name() const {
  std::string n = "eca";
  if (!options_.compensate) {
    n += "-nocomp";
  }
  if (options_.apply_immediately) {
    n += "-nocollect";
  }
  return n;
}

Status Eca::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(ViewMaintainer::Initialize(initial_source_state));
  collect_ = Relation(view_->output_schema());
  return Status::OK();
}

Query Eca::BuildCompensatedQuery(const Update& u, uint64_t query_id) const {
  std::optional<Term> term = ViewSubstituted(u);
  if (!term.has_value()) {
    return Query();  // irrelevant update: empty query
  }
  Query q(query_id, u.id, {std::move(*term)});
  if (options_.compensate) {
    uqs_.Compensate(u, &q);
  }
  return q;
}

void Eca::MaybeInstall() {
  if (uqs_.empty()) {
    InstallDelta(collect_);
    collect_.Clear();
  }
}

Status Eca::SendAndTrack(Query q, WarehouseContext* ctx) {
  if (q.empty()) {
    return Status::OK();
  }
  // Split off fully-bound terms: their value is a pure function of the
  // bound tuples, so the warehouse evaluates them itself and only the
  // state-dependent remainder travels to the source.
  Query remote(q.id(), q.update_id(), {});
  Relation local_delta(collect_.schema());
  for (const Term& t : q.terms()) {
    if (t.NumBound() == t.view()->num_relations()) {
      WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, Catalog()));
      local_delta.Add(part);
    } else {
      remote.AddTerm(t);
    }
  }

  if (options_.apply_immediately) {
    InstallDelta(local_delta);
  } else {
    collect_.Add(local_delta);
  }
  if (!remote.empty()) {
    // UQS keeps the FULL query: compensation substitutes into all terms
    // (substituting into an already fully-bound term vanishes anyway).
    uqs_.Add(std::move(q));
    ctx->SendQuery(std::move(remote));
  } else if (!options_.apply_immediately) {
    MaybeInstall();
  }
  return Status::OK();
}

Status Eca::OnUpdate(const Update& u, WarehouseContext* ctx) {
  Query q = BuildCompensatedQuery(u, ctx->NextQueryId());
  return SendAndTrack(std::move(q), ctx);
}

Status Eca::OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) {
  (void)ctx;
  WVM_RETURN_IF_ERROR(uqs_.Answer(a.query_id));
  if (options_.apply_immediately) {
    InstallDelta(a.Sum());
    return Status::OK();
  }
  collect_.Add(a.Sum());
  MaybeInstall();
  return Status::OK();
}

std::shared_ptr<const MaintainerSnapshot> Eca::SnapshotState() const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->uqs = uqs_;
  snap->collect = collect_;
  return snap;
}

Status Eca::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from ECA");
  }
  ReplaceView(snap->mv);
  uqs_ = snap->uqs;
  collect_ = snap->collect;
  return Status::OK();
}

void Eca::LoseVolatileState() {
  // MV persists on warehouse disk; UQS and COLLECT were in memory. Pending
  // answers will now hit "answer for unknown query id" or, worse, silently
  // never install — the lost-state anomaly the recovery journal exists for.
  uqs_.Clear();
  collect_.Clear();
}

}  // namespace wvm
