#include "core/self_maintain.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/strings.h"
#include "query/evaluator.h"

namespace wvm {

namespace {

/// Union-find over combined-schema columns, seeded with the view's
/// equi-edges: two columns in one class are equal in every joined row, so
/// transitive equalities (natural joins chain consecutive occurrences) count
/// as realized join paths too.
class ColumnClasses {
 public:
  explicit ColumnClasses(const ViewDefinition& view)
      : parent_(view.combined_schema().size()) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
    for (const ViewDefinition::EquiEdge& e : view.equi_edges()) {
      Unite(e.left_column, e.right_column);
    }
  }

  size_t Find(size_t c) {
    while (parent_[c] != c) {
      parent_[c] = parent_[parent_[c]];
      c = parent_[c];
    }
    return c;
  }

 private:
  void Unite(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

  std::vector<size_t> parent_;
};

}  // namespace

const char* LocalDecisionName(LocalDecision decision) {
  switch (decision) {
    case LocalDecision::kLocalBound:
      return "local-bound";
    case LocalDecision::kLocalEmpty:
      return "local-empty";
    case LocalDecision::kLocalComplement:
      return "local-complement";
    case LocalDecision::kLocalKeyDelete:
      return "local-key-delete";
    case LocalDecision::kRemote:
      return "remote";
  }
  return "unknown";
}

Result<SelfMaintenanceAnalysis> SelfMaintenanceAnalysis::Analyze(
    const ViewDefinition& view, const SelfMaintainOptions& options) {
  const size_t n = view.num_relations();
  SelfMaintenanceAnalysis a;
  a.complements_.resize(n);
  a.decisions_.assign(
      n, std::array<LocalDecision, 2>{LocalDecision::kRemote,
                                      LocalDecision::kRemote});

  if (n == 1) {
    // Every substituted term is fully bound: pi(sigma(+-t)) is a pure
    // function of the update (Appendix D).
    a.decisions_[0] = {LocalDecision::kLocalBound, LocalDecision::kLocalBound};
    return a;
  }

  const SchemaConstraints& constraints = view.constraints();
  ColumnClasses classes(view);

  // Which declared foreign keys does the view's join condition realize?
  // An edge is realized when every FK column pair is equal under the join
  // (same column class); Validate already guaranteed the referenced side is
  // the target's full declared key, so a realized edge means: one concrete
  // row of `from` determines at most one joining row of `to`.
  for (const ForeignKeySpec& fk : constraints.foreign_keys()) {
    Result<size_t> from_ri = view.RelationIndex(fk.relation);
    Result<size_t> to_ri = view.RelationIndex(fk.ref_relation);
    if (!from_ri.ok() || !to_ri.ok()) {
      continue;  // FK involves a relation outside this view
    }
    ResolutionEdge edge;
    edge.from = *from_ri;
    edge.to = *to_ri;
    bool realized = true;
    for (size_t i = 0; i < fk.attrs.size(); ++i) {
      WVM_ASSIGN_OR_RETURN(size_t from_col,
                           view.CombinedIndexOf(fk.relation, fk.attrs[i]));
      WVM_ASSIGN_OR_RETURN(
          size_t to_col, view.CombinedIndexOf(fk.ref_relation, fk.ref_attrs[i]));
      if (classes.Find(from_col) != classes.Find(to_col)) {
        realized = false;
        break;
      }
      edge.from_cols.push_back(from_col - view.relation_offset(*from_ri));
      edge.to_cols.push_back(to_col - view.relation_offset(*to_ri));
    }
    if (realized) {
      a.edges_.push_back(std::move(edge));
    }
  }

  // FK-protected relations: some realized edge lands on their key. Under
  // referential integrity their inserts join nothing yet and their deletes
  // join nothing anymore, so their deltas are provably empty.
  std::vector<bool> fk_protected(n, false);
  for (const ResolutionEdge& e : a.edges_) {
    fk_protected[e.to] = true;
  }

  // Prunable complements: exactly the FK-protected relations. Evaluating
  // against a pruned subset is still exact because a pruned relation is
  // only ever joined through a realized key edge whose driving row is
  // concrete — the update tuple or an already-resolved pruned row (the
  // kLocalComplement chain-walk below refuses anything else) — so the join
  // restricts it to the probed keys, and resolution materializes those
  // rows (or falls back remotely on a probe the history cannot settle).
  // Non-key edges out of the relation only filter the resolved row
  // further; they cannot widen what the term can reach.
  const std::vector<bool>& prunable = fk_protected;

  // A relation's complement is needed only if some OTHER relation's updates
  // will evaluate terms locally with it unbound. FK-protected relations
  // never evaluate (their whole query is provably zero), so e.g. in a pure
  // star schema the big fact relation needs no complement at all — the
  // auxiliary state is just the (small, pruned) dimensions.
  std::vector<bool> needed(n, false);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) {
      if (i != j && !fk_protected[i]) {
        needed[j] = true;
      }
    }
  }

  if (options.complements) {
    for (size_t j = 0; j < n; ++j) {
      if (!needed[j]) {
        continue;
      }
      Complement& c = a.complements_[j];
      if (prunable[j] && options.prune_fk_targets) {
        c.mode = Complement::Mode::kPruned;
        const KeySpec* key = constraints.KeyOf(view.relations()[j].name);
        for (const std::string& attr : key->attrs) {
          c.key_cols.push_back(
              *view.relations()[j].schema.IndexOf(attr));
        }
      } else {
        c.mode = Complement::Mode::kFull;
      }
    }
  }

  // Decisions. kLocalComplement additionally needs the static chain-walk
  // proof: starting from the update's own (bound) position, every pruned
  // complement the terms will touch must be resolvable row-by-row along
  // realized FK edges whose source is already concrete (bound or itself a
  // resolved pruned row — full complements hold many rows and cannot drive
  // a keyed probe).
  for (size_t i = 0; i < n; ++i) {
    LocalDecision decision = LocalDecision::kRemote;
    bool covered = options.complements;
    for (size_t j = 0; j < n && covered; ++j) {
      if (j != i && a.complements_[j].mode == Complement::Mode::kNone) {
        covered = false;
      }
    }
    if (covered) {
      std::vector<bool> concrete(n, false);
      concrete[i] = true;
      bool progress = true;
      while (progress) {
        progress = false;
        for (const ResolutionEdge& e : a.edges_) {
          if (concrete[e.from] && !concrete[e.to] &&
              a.complements_[e.to].mode == Complement::Mode::kPruned) {
            concrete[e.to] = true;
            progress = true;
          }
        }
      }
      for (size_t j = 0; j < n; ++j) {
        if (j != i &&
            a.complements_[j].mode == Complement::Mode::kPruned &&
            !concrete[j]) {
          covered = false;
        }
      }
      if (covered) {
        decision = LocalDecision::kLocalComplement;
      }
    }
    for (UpdateKind kind : {UpdateKind::kInsert, UpdateKind::kDelete}) {
      LocalDecision d = decision;
      if (fk_protected[i]) {
        d = LocalDecision::kLocalEmpty;
      } else if (d == LocalDecision::kRemote &&
                 kind == UpdateKind::kDelete && view.KeysProjected()) {
        d = LocalDecision::kLocalKeyDelete;
      }
      a.decisions_[i][kind == UpdateKind::kDelete ? 1 : 0] = d;
    }
  }
  return a;
}

std::string SelfMaintenanceAnalysis::ToString(
    const ViewDefinition& view) const {
  std::string out;
  for (size_t i = 0; i < decisions_.size(); ++i) {
    const Complement& c = complements_[i];
    const char* mode = c.mode == Complement::Mode::kNone     ? "none"
                       : c.mode == Complement::Mode::kFull   ? "full"
                                                             : "pruned";
    out += StrCat(view.relations()[i].name, ": insert=",
                  LocalDecisionName(decisions_[i][0]), " delete=",
                  LocalDecisionName(decisions_[i][1]), " complement=", mode,
                  "\n");
  }
  for (const ResolutionEdge& e : edges_) {
    out += StrCat("edge ", view.relations()[e.from].name, " -> ",
                  view.relations()[e.to].name, "\n");
  }
  return out;
}

SelfMaintainer::SelfMaintainer(ViewDefinitionPtr view,
                               SelfMaintainOptions options)
    : Eca(std::move(view)), options_self_(options) {}

Status SelfMaintainer::Initialize(const Catalog& initial_source_state) {
  WVM_RETURN_IF_ERROR(Eca::Initialize(initial_source_state));
  WVM_ASSIGN_OR_RETURN(analysis_,
                       SelfMaintenanceAnalysis::Analyze(*view_, options_self_));
  aux_ = Catalog();
  std::vector<std::vector<size_t>> pruned_keys(view_->num_relations());
  for (size_t ri = 0; ri < view_->num_relations(); ++ri) {
    const SelfMaintenanceAnalysis::Complement& c = analysis_.complement(ri);
    if (c.mode == SelfMaintenanceAnalysis::Complement::Mode::kPruned) {
      pruned_keys[ri] = c.key_cols;
    }
  }
  history_ = KeyedUpdateHistory(std::move(pruned_keys));
  aux_live_ = false;

  if (options_self_.complements) {
    using Mode = SelfMaintenanceAnalysis::Complement::Mode;
    for (size_t ri = 0; ri < view_->num_relations(); ++ri) {
      const BaseRelationDef& rel = view_->relations()[ri];
      const SelfMaintenanceAnalysis::Complement& c = analysis_.complement(ri);
      if (c.mode == Mode::kNone) {
        continue;
      }
      WVM_ASSIGN_OR_RETURN(const Relation* src,
                           initial_source_state.Get(rel.name));
      if (c.mode == Mode::kFull) {
        WVM_RETURN_IF_ERROR(aux_.DefineWithData(rel, *src));
        continue;
      }
      // Pruned: the initial semijoin — rows some referencing relation
      // actually joins at init. Rows referenced only later resolve through
      // the update history (or fall back to the source).
      Relation pruned(src->schema());
      std::set<Tuple> kept;
      for (const SelfMaintenanceAnalysis::ResolutionEdge& e :
           analysis_.resolution_edges()) {
        if (e.to != ri) {
          continue;
        }
        WVM_ASSIGN_OR_RETURN(
            const Relation* from_rel,
            initial_source_state.Get(view_->relations()[e.from].name));
        std::set<Tuple> referenced;
        for (const auto& [t, count] : from_rel->entries()) {
          if (count > 0) {
            referenced.insert(t.Project(e.from_cols));
          }
        }
        for (const auto& [t, count] : src->entries()) {
          if (count > 0 && referenced.count(t.Project(e.to_cols)) > 0 &&
              kept.insert(t).second) {
            pruned.Insert(t, count);
          }
        }
      }
      WVM_RETURN_IF_ERROR(aux_.DefineWithData(rel, std::move(pruned)));
    }
    aux_live_ = true;
  }

  // Pre-warm the locally answerable plan masks: compensation terms of a
  // local update bind the update's position plus the pending query's, so
  // steady-state local evaluation hits pairwise masks (single-bit masks are
  // already warmed by ViewDefinition::Create).
  const size_t n = view_->num_relations();
  for (size_t i = 0; i < n; ++i) {
    const bool local =
        analysis_.DecisionFor(i, UpdateKind::kInsert) ==
            LocalDecision::kLocalComplement ||
        analysis_.DecisionFor(i, UpdateKind::kDelete) ==
            LocalDecision::kLocalComplement;
    if (!local) {
      continue;
    }
    for (size_t p = 0; p < n; ++p) {
      if (p != i) {
        WVM_RETURN_IF_ERROR(
            view_->CompiledPlanFor((uint64_t{1} << i) | (uint64_t{1} << p))
                .status());
      }
    }
  }
  return Status::OK();
}

int64_t SelfMaintainer::aux_rows() const {
  int64_t rows = 0;
  for (const std::string& name : aux_.Names()) {
    rows += static_cast<int64_t>((*aux_.Get(name))->NumDistinct());
  }
  return rows;
}

Status SelfMaintainer::ApplyToAux(const Update& u) {
  WVM_ASSIGN_OR_RETURN(size_t ri, view_->RelationIndex(u.relation));
  WVM_RETURN_IF_ERROR(history_.Record(ri, u));
  using Mode = SelfMaintenanceAnalysis::Complement::Mode;
  switch (analysis_.complement(ri).mode) {
    case Mode::kNone:
      return Status::OK();
    case Mode::kFull:
      // Exact mirror: the complement tracks the source state after exactly
      // the updates processed so far.
      return aux_.Apply(u);
    case Mode::kPruned: {
      // Deletes must apply (a stale deleted row would be a false join
      // partner); inserts stay lazy — the history proves them on demand.
      if (u.kind != UpdateKind::kDelete) {
        return Status::OK();
      }
      WVM_ASSIGN_OR_RETURN(const Relation* rel, aux_.Get(u.relation));
      const int64_t count = rel->CountOf(u.tuple);
      if (count != 0) {
        WVM_ASSIGN_OR_RETURN(Relation * mut, aux_.GetMutable(u.relation));
        mut->Insert(u.tuple, -count);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable complement mode");
}

Result<SelfMaintainer::Resolution> SelfMaintainer::ResolveKeyedRow(
    const SelfMaintenanceAnalysis::ResolutionEdge& edge,
    const std::vector<Value>& key) {
  const std::string& name = view_->relations()[edge.to].name;
  const auto value_at = [&key](size_t i) -> const Value& { return key[i]; };

  Resolution res;
  {
    // Scoped: the index pins the complement's counts map, so it must be
    // gone before a backfill below writes the complement — held across the
    // write, it would make the write clone the whole map.
    WVM_ASSIGN_OR_RETURN(std::shared_ptr<const RelationKeyIndex> index,
                         aux_.KeyIndexFor(name, edge.to_cols));
    const size_t hash = RelationKeyIndex::ProbeHash(key.size(), value_at);
    index->ForEachMatch(hash, value_at,
                        [&res](const Tuple& row, int64_t count) {
                          if (count > 0) {
                            res.proof = TermProof::kProven;
                            res.row = row;
                          }
                        });
  }
  if (res.proof == TermProof::kProven) {
    return res;
  }

  // Probe miss: the history holds the source's updates since warehouse
  // start. The LAST write to this keyed row decides its status; no write at
  // all means the row predates the warehouse and was never referenced at
  // init — unknown, hence unprovable.
  const KeyedUpdateHistory::LastWrite* last =
      history_.Find(edge.to, edge.to_cols, key);
  if (last == nullptr) {
    return res;  // kUnproven
  }
  if (last->kind == UpdateKind::kDelete) {
    res.proof = TermProof::kEmpty;  // proven absent
    return res;
  }
  // Proven present: materialize it so future probes hit the complement.
  res.proof = TermProof::kProven;
  res.row = last->row;
  WVM_ASSIGN_OR_RETURN(Relation * mut, aux_.GetMutable(name));
  mut->Insert(res.row, 1);
  ++journal_backfills_;
  return res;
}

Result<SelfMaintainer::TermProof> SelfMaintainer::ProveTerm(const Term& term) {
  using Mode = SelfMaintenanceAnalysis::Complement::Mode;
  const std::vector<TermOperand>& ops = term.operands();
  const size_t n = ops.size();

  // Concrete single rows per position: bound tuples seed the chain-walk.
  std::vector<const Tuple*> resolved(n, nullptr);
  std::vector<Tuple> storage(n);
  for (size_t i = 0; i < n; ++i) {
    if (ops[i].is_bound) {
      resolved[i] = &ops[i].bound.tuple;
    } else if (analysis_.complement(i).mode == Mode::kNone) {
      return TermProof::kUnproven;  // nothing local covers this operand
    }
  }

  bool progress = true;
  while (progress) {
    progress = false;
    for (const SelfMaintenanceAnalysis::ResolutionEdge& e :
         analysis_.resolution_edges()) {
      if (ops[e.to].is_bound || resolved[e.to] != nullptr ||
          analysis_.complement(e.to).mode != Mode::kPruned ||
          resolved[e.from] == nullptr) {
        continue;
      }
      std::vector<Value> key;
      key.reserve(e.from_cols.size());
      for (size_t c : e.from_cols) {
        key.push_back(resolved[e.from]->value(c));
      }
      WVM_ASSIGN_OR_RETURN(Resolution r, ResolveKeyedRow(e, key));
      if (r.proof == TermProof::kEmpty) {
        // A required join partner is proven absent: the whole conjunctive
        // term is empty at the current state.
        return TermProof::kEmpty;
      }
      if (r.proof == TermProof::kUnproven) {
        continue;  // another edge may still resolve e.to
      }
      storage[e.to] = std::move(r.row);
      resolved[e.to] = &storage[e.to];
      progress = true;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!ops[i].is_bound &&
        analysis_.complement(i).mode == Mode::kPruned &&
        resolved[i] == nullptr) {
      return TermProof::kUnproven;
    }
  }
  return TermProof::kProven;
}

Status SelfMaintainer::ProcessWithComplements(Query q, WarehouseContext* ctx,
                                              bool expected_local) {
  if (q.empty()) {
    return Status::OK();
  }
  Query remote(q.id(), q.update_id(), {});
  Relation local_delta(collect_.schema());
  for (const Term& t : q.terms()) {
    if (t.NumBound() == t.view()->num_relations()) {
      WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, Catalog()));
      local_delta.Add(part);
      continue;
    }
    TermProof proof = TermProof::kUnproven;
    if (aux_live_) {
      WVM_ASSIGN_OR_RETURN(proof, ProveTerm(t));
    }
    if (proof == TermProof::kProven) {
      // Instant answer: the complements mirror the source state after
      // exactly the updates processed so far, which is a legal evaluation
      // state for this query (the "answer before the next update"
      // interleaving). The term never enters UQS.
      WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, aux_));
      local_delta.Add(part);
    } else if (proof == TermProof::kUnproven) {
      remote.AddTerm(t);
    }
    // kEmpty: proven zero, contributes nothing.
  }
  collect_.Add(local_delta);
  if (!remote.empty()) {
    ++remote_updates_;
    if (expected_local) {
      ++fallbacks_;
    }
    // Only the unanswered remainder needs future compensation.
    uqs_.Add(remote);
    ctx->SendQuery(std::move(remote));
  } else {
    ++local_updates_;
    MaybeInstall();
  }
  return Status::OK();
}

Status SelfMaintainer::KeyDeleteLocally(const Update& u) {
  WVM_ASSIGN_OR_RETURN(ColumnValues key, view_->KeyConstraintsFor(u));
  // UQS is empty, so COLLECT is empty and MV is current: the delta is minus
  // every view row carrying u's key values (key uniqueness + projected keys
  // mean exactly the rows derived from the deleted tuple).
  collect_.Add(KeyDeleteDelta(view_contents(), key));
  MaybeInstall();
  return Status::OK();
}

Status SelfMaintainer::OnUpdate(const Update& u, WarehouseContext* ctx) {
  // Allocate the id unconditionally, exactly like Eca::OnUpdate — replay
  // determinism depends on re-allocating the same ids.
  const uint64_t query_id = ctx->NextQueryId();
  Result<size_t> ri = view_->RelationIndex(u.relation);
  if (!ri.ok()) {
    return Status::OK();  // irrelevant update
  }
  if (aux_live_) {
    WVM_RETURN_IF_ERROR(ApplyToAux(u));
  }

  LocalDecision decision = analysis_.DecisionFor(*ri, u.kind);
  if (!aux_live_ && decision == LocalDecision::kLocalComplement) {
    // Degraded (complements off or lost in a bare crash): only the pure
    // constraint proofs remain.
    decision = (u.kind == UpdateKind::kDelete && view_->KeysProjected())
                   ? LocalDecision::kLocalKeyDelete
                   : LocalDecision::kRemote;
  }

  if (decision == LocalDecision::kLocalEmpty) {
    if (uqs_.empty()) {
      // Q_u = V<u> alone, and referential integrity at the state the
      // source just produced makes every such term empty: u's key is
      // unreferenced (fresh on insert, abandoned on delete), so joining
      // through the realized key edge yields nothing. Nothing to fold,
      // nothing to send.
      ++local_updates_;
      ++constraint_empty_;
      return Status::OK();
    }
    // Pending remote queries will be answered at a source state that
    // already includes u, so they still need u's compensation terms —
    // those bind a PENDING update's tuple (possibly a row u's integrity
    // argument says nothing about, e.g. an order whose delete is still in
    // flight). Only the pure delta terms — exactly one bound position,
    // u's own — are covered by the constraint proof; drop them and push
    // the compensation remainder through the normal local/remote split.
    const Query q = BuildCompensatedQuery(u, query_id);
    Query compensation(q.id(), q.update_id(), {});
    for (const Term& t : q.terms()) {
      if (t.NumBound() > 1) {
        compensation.AddTerm(t);
      }
    }
    if (compensation.empty()) {
      ++local_updates_;
      ++constraint_empty_;
      return Status::OK();
    }
    return ProcessWithComplements(std::move(compensation), ctx,
                                  /*expected_local=*/aux_live_);
  }
  if (decision == LocalDecision::kLocalKeyDelete && uqs_.empty()) {
    ++local_updates_;
    ++key_deletes_;
    return KeyDeleteLocally(u);
  }

  const bool expected_local = decision == LocalDecision::kLocalBound ||
                              decision == LocalDecision::kLocalComplement;
  return ProcessWithComplements(BuildCompensatedQuery(u, query_id), ctx,
                                expected_local);
}

std::shared_ptr<const MaintainerSnapshot> SelfMaintainer::SnapshotState()
    const {
  auto snap = std::make_shared<Snapshot>();
  snap->mv = view_contents();
  snap->uqs = uqs_;
  snap->collect = collect_;
  snap->aux = aux_;
  snap->history = history_;
  snap->aux_live = aux_live_;
  return snap;
}

Status SelfMaintainer::RestoreState(const MaintainerSnapshot& snapshot) {
  const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "snapshot was not taken from SelfMaintainer");
  }
  ReplaceView(snap->mv);
  uqs_ = snap->uqs;
  collect_ = snap->collect;
  aux_ = snap->aux;
  history_ = snap->history;
  aux_live_ = snap->aux_live;
  return Status::OK();
}

void SelfMaintainer::LoseVolatileState() {
  // The complements and the update history live in warehouse memory: a
  // bare crash loses them, and the maintainer degrades to the pure
  // constraint proofs plus remote fallback (still correct, just no longer
  // self-maintaining) until a recovered restart restores them.
  Eca::LoseVolatileState();
  aux_ = Catalog();
  history_.Clear();
  aux_live_ = false;
}

}  // namespace wvm
