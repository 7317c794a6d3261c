#ifndef WVM_CORE_SELF_MAINTAIN_H_
#define WVM_CORE_SELF_MAINTAIN_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/eca.h"
#include "core/update_history.h"

namespace wvm {

/// Knobs of the self-maintenance decision procedure. Both default on; the
/// degraded configurations exist for the ablation benches and to exhibit
/// the provably-not-local decision cells.
struct SelfMaintainOptions {
  /// Maintain auxiliary complements — warehouse-local mirrors of the base
  /// relations an update's delta needs as unbound operands. Off, the only
  /// local cases left are the pure constraint proofs (empty deltas,
  /// key-deletes, single-relation views).
  bool complements = true;
  /// Row-prune the complement of a relation whose declared key is the join
  /// target of declared foreign keys: keep only rows proven live by the
  /// initial semijoin or by the update history, resolving probe misses
  /// through the history and falling back to the source when a row's
  /// status cannot be proven.
  bool prune_fk_targets = true;
};

/// How the decision procedure classified one (relation, update kind) cell.
enum class LocalDecision {
  /// Single-relation view: every term is fully bound, a pure function of u.
  kLocalBound,
  /// Constraint proof: the delta is empty. u's relation is FK-protected —
  /// the view joins its declared key from a declared foreign key, so under
  /// referential integrity an inserted key is not yet referenced and a
  /// deleted key is no longer referenced; the join has no partners either
  /// way. Needs no auxiliary state at all.
  kLocalEmpty,
  /// Auxiliary complements cover every unbound operand of every term; the
  /// compensated query is evaluated at the warehouse against them. The
  /// static proof may still fail at run time for a pruned complement (cold
  /// row, unknown to the update history), which falls back to the source.
  kLocalComplement,
  /// Deletes with every base key projected: the view's own state suffices
  /// (ECA-Key's key-delete). Only taken while UQS is empty — with queries
  /// in flight the anomaly-suppression machinery of ECA-Key would be
  /// needed, so the update falls back to the compensating query instead.
  kLocalKeyDelete,
  /// No proof: ECA's compensating query, exactly as the base class sends it.
  kRemote,
};

const char* LocalDecisionName(LocalDecision decision);

/// The static half of self-maintenance: given a view and its declared
/// SchemaConstraints, decide per (base relation, update kind) whether the
/// delta V<u> is provably computable at the warehouse, and plan the
/// auxiliary complements the local evaluations will join against.
class SelfMaintenanceAnalysis {
 public:
  /// Complement plan for one base relation.
  struct Complement {
    enum class Mode {
      kNone,    // never needed (or complements disabled)
      kFull,    // exact mirror, maintained by applying every update
      kPruned,  // keyed subset: initial semijoin + history-resolved rows
    };
    Mode mode = Mode::kNone;
    /// kPruned: the relation's declared key columns (own-schema indexes).
    std::vector<size_t> key_cols;
  };

  /// One foreign-key edge the view's join condition realizes: a concrete
  /// row of relation `from` determines (via its FK columns) at most one row
  /// of relation `to`, because the edge lands on `to`'s full declared key.
  /// The runtime chain-walk follows these edges from the update's bound
  /// tuple to resolve pruned complements row by row.
  struct ResolutionEdge {
    size_t from = 0;
    size_t to = 0;
    std::vector<size_t> from_cols;  // own-schema indexes in `from`
    std::vector<size_t> to_cols;    // aligned own-schema key indexes in `to`
  };

  static Result<SelfMaintenanceAnalysis> Analyze(
      const ViewDefinition& view, const SelfMaintainOptions& options);

  LocalDecision DecisionFor(size_t relation_index, UpdateKind kind) const {
    return decisions_[relation_index][kind == UpdateKind::kDelete ? 1 : 0];
  }
  const Complement& complement(size_t relation_index) const {
    return complements_[relation_index];
  }
  const std::vector<ResolutionEdge>& resolution_edges() const {
    return edges_;
  }
  size_t num_relations() const { return decisions_.size(); }

  /// Human-readable decision table with the per-cell proof sketch.
  std::string ToString(const ViewDefinition& view) const;

 private:
  std::vector<Complement> complements_;
  std::vector<ResolutionEdge> edges_;
  // [relation][0 = insert, 1 = delete]
  std::vector<std::array<LocalDecision, 2>> decisions_;
};

/// The self-maintaining warehouse algorithm (ROADMAP item 2): answer
/// updates without querying the source whenever the declared key/FK
/// constraints prove the answer is derivable at the warehouse.
///
/// Correctness framing: SelfMaintainer runs exactly ECA's algebra, but
/// plays the role of an instant-answering virtual source for the terms it
/// can prove. When update u_i arrives it builds the full compensated query
///
///     Q_i = V<u_i> - sum_{Q_j in UQS} Q_j<u_i>
///
/// and evaluates every provable term immediately against its auxiliary
/// state, which mirrors the source state after exactly u_1..u_i (the
/// single FIFO notification stream delivers updates in execution order).
/// That is precisely the answer a source would return under the legal
/// interleaving "answer pending queries before executing the next update",
/// and ECA is strongly consistent under every interleaving — so instant
/// answers inherit the theorem. Only the unprovable remainder ships to the
/// source and enters UQS; instantly-answered terms need no future
/// compensation because their evaluation state contains no later updates.
///
/// Auxiliary state (all of it checkpointed by SnapshotState and volatile
/// under a bare crash):
///   * complements: a Catalog of base-relation mirrors, full or FK-pruned,
///   * the source's update history since warehouse start, kept as a
///     last-write index over the pruned relations' keys
///     (KeyedUpdateHistory): the last write to a keyed row proves its
///     presence or absence, settling a pruned-complement miss.
class SelfMaintainer : public Eca {
 public:
  explicit SelfMaintainer(ViewDefinitionPtr view,
                          SelfMaintainOptions options = SelfMaintainOptions());

  std::string name() const override { return "self-maint"; }

  Status Initialize(const Catalog& initial_source_state) override;
  Status OnUpdate(const Update& u, WarehouseContext* ctx) override;

  const SelfMaintenanceAnalysis& analysis() const { return analysis_; }
  const SelfMaintainOptions& self_maintain_options() const {
    return options_self_;
  }

  /// Updates answered with zero source messages / via a compensating query.
  int64_t local_updates() const { return local_updates_; }
  int64_t remote_updates() const { return remote_updates_; }
  /// Subset of local_updates(): deltas proven empty by constraints alone.
  int64_t constraint_empty_updates() const { return constraint_empty_; }
  /// Subset of local_updates(): view-side key-deletes.
  int64_t key_delete_updates() const { return key_deletes_; }
  /// Pruned-complement rows materialized from the update history.
  int64_t journal_backfills() const { return journal_backfills_; }
  /// Remote updates whose static decision was local but whose runtime proof
  /// failed (cold pruned row unknown to the update history).
  int64_t fallback_updates() const { return fallbacks_; }
  /// Distinct rows currently held across all complements.
  int64_t aux_rows() const;
  /// The complements themselves (read-only, for diagnostics and tests).
  const Catalog& complements() const { return aux_; }
  /// Distinct pruned-relation keys the update history holds a write for.
  int64_t history_keys() const {
    return static_cast<int64_t>(history_.num_keys());
  }
  /// Whether the auxiliary state is live (false after a bare crash until a
  /// recovered restart restores it; the maintainer degrades to the pure
  /// constraint proofs + remote fallback, still correct).
  bool aux_live() const { return aux_live_; }

  /// Recoverable state: ECA's (MV, UQS, COLLECT) plus the complements and
  /// the update history.
  struct Snapshot : Eca::Snapshot {
    Catalog aux;
    KeyedUpdateHistory history;
    bool aux_live = false;
  };
  std::shared_ptr<const MaintainerSnapshot> SnapshotState() const override;
  Status RestoreState(const MaintainerSnapshot& snapshot) override;
  void LoseVolatileState() override;

 private:
  enum class TermProof { kProven, kEmpty, kUnproven };

  /// Mirrors u into the update history and the complements (full: apply
  /// exactly; pruned: apply deletes, defer inserts to the history).
  Status ApplyToAux(const Update& u);

  /// Chain-walks the term's bound tuples along the resolution edges,
  /// resolving every unbound pruned operand to a concrete row (complement
  /// probe, then update history). kProven: evaluate against aux_. kEmpty: a
  /// required join partner is proven absent, the term contributes nothing.
  /// kUnproven: ship it.
  Result<TermProof> ProveTerm(const Term& term);

  /// Probe one pruned complement for the row with `key` in `edge.to_cols`.
  /// Outcomes: kProven with the row (present, materialized), kEmpty (proven
  /// absent), kUnproven.
  struct Resolution {
    TermProof proof = TermProof::kUnproven;
    Tuple row;  // set iff kProven
  };
  Result<Resolution> ResolveKeyedRow(
      const SelfMaintenanceAnalysis::ResolutionEdge& edge,
      const std::vector<Value>& key);

  /// Evaluates the provable terms of q against the complements, folds them
  /// into COLLECT, ships only the unprovable remainder (which alone enters
  /// UQS), and installs when nothing is in flight. `expected_local` marks
  /// updates whose static decision promised a local answer, for the
  /// fallback counter.
  Status ProcessWithComplements(Query q, WarehouseContext* ctx,
                                bool expected_local);

  /// View-side key-delete of u's key values (requires empty UQS: MV is
  /// current and COLLECT empty, so the delta is -matching view rows).
  Status KeyDeleteLocally(const Update& u);

  SelfMaintainOptions options_self_;
  SelfMaintenanceAnalysis analysis_;
  Catalog aux_;                 // the complements
  KeyedUpdateHistory history_;  // last write per pruned-relation key
  bool aux_live_ = false;

  int64_t local_updates_ = 0;
  int64_t remote_updates_ = 0;
  int64_t constraint_empty_ = 0;
  int64_t key_deletes_ = 0;
  int64_t journal_backfills_ = 0;
  int64_t fallbacks_ = 0;
};

}  // namespace wvm

#endif  // WVM_CORE_SELF_MAINTAIN_H_
