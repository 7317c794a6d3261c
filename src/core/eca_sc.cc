#include "core/eca_sc.h"

#include "common/strings.h"

namespace wvm {

std::string EcaSc::name() const {
  std::vector<std::string> names(replicated_.begin(), replicated_.end());
  return StrCat("eca-sc(", Join(names, ","), ")");
}

Status EcaSc::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(Eca::Initialize(initial_source_state));
  replicas_ = Catalog();
  for (const std::string& name : replicated_) {
    WVM_ASSIGN_OR_RETURN(size_t index, view_->RelationIndex(name));
    const BaseRelationDef& def = view_->relations()[index];
    WVM_ASSIGN_OR_RETURN(const Relation* data,
                         initial_source_state.Get(name));
    WVM_RETURN_IF_ERROR(replicas_.DefineWithData(def, *data));
  }
  return Status::OK();
}

bool EcaSc::IsFullyLocal(const Term& term) const {
  const ViewDefinition& view = *term.view();
  for (size_t p = 0; p < view.num_relations(); ++p) {
    if (!term.operands()[p].is_bound &&
        replicated_.count(view.relations()[p].name) == 0) {
      return false;
    }
  }
  return true;
}

Result<std::vector<Term>> EcaSc::BindReplicatedPositions(
    const Term& term) const {
  const ViewDefinition& view = *term.view();
  std::vector<Term> frontier = {term};

  // Sweep to a fixpoint: bind a replicated position only once it is
  // constrained by an already-bound position (the bind-join must be a
  // semi-join, never a blow-up over the whole replica). Constraints can
  // flow in either direction along the join chain, hence the repetition.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t p = 0; p < view.num_relations(); ++p) {
      const std::string& name = view.relations()[p].name;
      if (replicated_.count(name) == 0) {
        continue;
      }
      WVM_ASSIGN_OR_RETURN(const Relation* replica, replicas_.Get(name));
      const size_t offset = view.relation_offset(p);
      const size_t arity = view.relations()[p].schema.size();

      std::vector<Term> expanded;
      for (const Term& t : frontier) {
        if (t.operands()[p].is_bound) {
          expanded.push_back(t);
          continue;
        }
        // Equality constraints from already-bound positions onto p's
        // columns.
        ColumnValues constraints;
        for (const ViewDefinition::EquiEdge& e : view.equi_edges()) {
          for (const auto& [mine, other] :
               {std::pair<size_t, size_t>{e.left_column, e.right_column},
                std::pair<size_t, size_t>{e.right_column, e.left_column}}) {
            if (mine < offset || mine >= offset + arity) {
              continue;
            }
            for (size_t q = 0; q < view.num_relations(); ++q) {
              const size_t q_offset = view.relation_offset(q);
              const size_t q_arity = view.relations()[q].schema.size();
              if (other >= q_offset && other < q_offset + q_arity &&
                  t.operands()[q].is_bound) {
                constraints.emplace_back(
                    mine - offset,
                    t.operands()[q].bound.tuple.value(other - q_offset));
              }
            }
          }
        }
        if (constraints.empty()) {
          expanded.push_back(t);  // unconstrained: leave for the source or
          continue;               // the local replica evaluation
        }
        changed = true;
        for (const auto& [row, count] : replica->entries()) {
          if (!RowMatches(row, constraints)) {
            continue;
          }
          std::optional<Term> bound =
              t.Substitute(Update::Insert(name, row));
          if (!bound.has_value()) {
            return Status::Internal("bind-join failed to substitute");
          }
          bound->set_coefficient(t.coefficient() * static_cast<int>(count));
          expanded.push_back(std::move(*bound));
        }
      }
      frontier = std::move(expanded);
    }
  }
  return frontier;
}

Status EcaSc::OnUpdate(const Update& u, WarehouseContext* ctx) {
  if (!view_->RelationIndex(u.relation).ok()) {
    return Status::OK();  // irrelevant update
  }
  // Replicas advance in notification (= source) order, BEFORE the delta is
  // built, so bound replica rows reflect exactly the state ss_i of
  // Lemma B.2.
  if (replicated_.count(u.relation) > 0) {
    WVM_RETURN_IF_ERROR(replicas_.Apply(u));
  }
  Query q = BuildCompensatedQuery(u, ctx->NextQueryId());
  if (q.empty()) {
    return Status::OK();
  }

  // Terms whose unbound positions are all replicated evaluate against the
  // replicas right now: the replicas hold exactly ss_i (notifications are
  // applied in source order before the delta is built), so these parts of
  // the delta are EXACT and need no compensation — they are therefore
  // excluded from the query stored in UQS. The rest get their replicated
  // positions semi-join-bound and travel to the source as usual.
  Query remote(q.id(), q.update_id(), {});
  Relation local_delta(collect_.schema());
  for (const Term& t : q.terms()) {
    if (IsFullyLocal(t)) {
      WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, replicas_));
      local_delta.Add(part);
      continue;
    }
    WVM_ASSIGN_OR_RETURN(std::vector<Term> bound, BindReplicatedPositions(t));
    for (Term& b : bound) {
      remote.AddTerm(std::move(b));
    }
  }
  collect_.Add(local_delta);
  if (remote.empty()) {
    MaybeInstall();
    return Status::OK();
  }
  return SendAndTrack(std::move(remote), ctx);
}

int64_t EcaSc::ReplicaTupleCount() const {
  int64_t total = 0;
  for (const std::string& name : replicas_.Names()) {
    total += replicas_.Get(name).value()->TotalPositive();
  }
  return total;
}

std::shared_ptr<const MaintainerSnapshot> EcaSc::SnapshotState() const {
  auto snap = std::make_shared<ScSnapshot>();
  snap->mv = view_contents();
  snap->uqs = uqs_;
  snap->collect = collect_;
  snap->replicas = replicas_.Clone();
  return snap;
}

Status EcaSc::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const ScSnapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot was not taken from ECA-SC");
  }
  WVM_RETURN_IF_ERROR(Eca::RestoreState(snapshot));
  replicas_ = snap->replicas.Clone();
  return Status::OK();
}

}  // namespace wvm
