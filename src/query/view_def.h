#ifndef WVM_QUERY_VIEW_DEF_H_
#define WVM_QUERY_VIEW_DEF_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/schema_constraints.h"
#include "relational/predicate.h"
#include "relational/relation.h"
#include "relational/update.h"

namespace wvm {

class CompiledDeltaPlan;

/// Equality constraints on a row: pairs of (column index, required value).
/// ECA-Key's key-delete states its target rows this way, and so does
/// ECA-SC's bind-join against a replica.
using ColumnValues = std::vector<std::pair<size_t, Value>>;

/// True when `row` carries every (column, value) pair of `constraints`.
bool RowMatches(const Tuple& row, const ColumnValues& constraints);

/// The key-delete of ECA-Key (Section 5.4) as a delta: minus every row of
/// `view` that matches `key` (from ViewDefinition::KeyConstraintsFor), at
/// its full multiplicity. Adding it to `view` removes those rows.
Relation KeyDeleteDelta(const Relation& view, const ColumnValues& key);

/// A warehouse view in the paper's normal form (Section 4):
///
///     V = pi_proj( sigma_cond( r1 x r2 x ... x rn ) )
///
/// Base relations are distinct. Attributes of the combined (cross-product)
/// schema are qualified as "rel.attr"; `proj` and `cond` may reference an
/// attribute unqualified when its name is unique across the base relations
/// (as in all of the paper's examples) or qualified otherwise.
///
/// Immutable after construction; shared by queries derived from it.
class ViewDefinition {
 public:
  /// The most base relations a view may join: compiled plans key their
  /// cache on a 64-bit mask with one bit per relation position.
  static constexpr size_t kMaxRelations = 64;

  /// Builds and validates a view. `projection` and `cond` are resolved
  /// against the combined schema. Key metadata is derived from the schemas'
  /// `is_key` flags (SchemaConstraints::FromSchemas); foreign keys cannot be
  /// expressed this way — use the overload below to declare them. Fails
  /// with InvalidArgument for more than kMaxRelations relations.
  static Result<std::shared_ptr<const ViewDefinition>> Create(
      std::string name, std::vector<BaseRelationDef> relations,
      std::vector<std::string> projection, Predicate cond);

  /// As above with explicitly declared constraints, which are validated
  /// against the base relations. This is the full schema-constraints
  /// surface: per-relation keys plus foreign keys with their join paths,
  /// consumed by ECA-Key's key condition and SelfMaintainer's decision
  /// procedure.
  static Result<std::shared_ptr<const ViewDefinition>> Create(
      std::string name, std::vector<BaseRelationDef> relations,
      std::vector<std::string> projection, Predicate cond,
      SchemaConstraints constraints);

  /// Convenience builder for natural-join views like the paper's
  /// V = pi_W(r1 |x| r2 |x| r3): adds equality conditions between every
  /// pair of same-named attributes of different base relations, conjoined
  /// with `extra_cond`.
  static Result<std::shared_ptr<const ViewDefinition>> NaturalJoin(
      std::string name, std::vector<BaseRelationDef> relations,
      std::vector<std::string> projection, Predicate extra_cond = Predicate());

  /// Natural join with explicitly declared constraints.
  static Result<std::shared_ptr<const ViewDefinition>> NaturalJoin(
      std::string name, std::vector<BaseRelationDef> relations,
      std::vector<std::string> projection, Predicate extra_cond,
      SchemaConstraints constraints);

  const std::string& name() const { return name_; }
  const std::vector<BaseRelationDef>& relations() const { return relations_; }
  size_t num_relations() const { return relations_.size(); }

  /// Index of base relation `name` in relations(), or error.
  Result<size_t> RelationIndex(const std::string& name) const;

  /// The qualified cross-product schema r1 x ... x rn.
  const Schema& combined_schema() const { return combined_schema_; }
  /// Output schema of the view (projected attributes, qualified names).
  const Schema& output_schema() const { return output_schema_; }
  /// Projection column indices into the combined schema.
  const std::vector<size_t>& projection_indices() const {
    return projection_indices_;
  }
  /// Offset of relation i's first column in the combined schema.
  size_t relation_offset(size_t i) const { return relation_offsets_[i]; }

  const Predicate& cond() const { return cond_; }
  const BoundPredicate& bound_cond() const { return bound_cond_; }

  /// The conjuncts of `cond` that equi-join planning does NOT enforce:
  /// everything except top-level attr = attr equalities spanning two
  /// different base relations (those are the equi_edges()). An evaluator
  /// that applies every spanning equi-edge while joining only needs to
  /// apply this residual to the joined result; evaluators that join by
  /// plain cross product (e.g. EvaluateTermNaive) must use bound_cond().
  const Predicate& residual_cond() const { return residual_cond_; }

  /// The view's declared (or schema-derived) key and foreign-key metadata.
  const SchemaConstraints& constraints() const { return *constraints_; }
  const std::shared_ptr<const SchemaConstraints>& shared_constraints() const {
    return constraints_;
  }

  /// True if every base relation has a declared key and all of its key
  /// attributes are present in the projection. This is the applicability
  /// condition of ECA-Key (Section 5.4) and of view-side key-deletes.
  bool KeysProjected() const { return keys_projected_; }

  /// For a view with KeysProjected(): the output-column constraints implied
  /// by deleting/inserting `u.tuple` in `u.relation` — pairs of (output
  /// column index, key value), one per attribute of the relation's declared
  /// KeySpec. The key-delete operation of ECA-Key removes every view tuple
  /// matching all constraints (KeyDeleteDelta).
  Result<ColumnValues> KeyConstraintsFor(const Update& u) const;

  /// Index of relation `relation`'s attribute `attr` in the combined
  /// schema (offset + position; resolves regardless of name qualification).
  Result<size_t> CombinedIndexOf(const std::string& relation,
                                 const std::string& attr) const;

  /// Equi-join edges extracted from top-level conjuncts of `cond` of the
  /// form attr = attr; used by evaluators to plan hash joins.
  struct EquiEdge {
    size_t left_column;   // index into combined schema
    size_t right_column;  // index into combined schema
  };
  const std::vector<EquiEdge>& equi_edges() const { return equi_edges_; }

  /// The compiled delta plan for this view and `bound_mask` (bit i set =
  /// operand i substituted by a tuple; see TermBoundMask). Plans are
  /// compiled on first use and cached on the view — one plan per delta
  /// shape, shared by every update that hits the same relation set.
  /// Create() pre-warms the cache with the full-view plan and every
  /// single-substitution plan, so steady-state maintenance never compiles.
  Result<std::shared_ptr<const CompiledDeltaPlan>> CompiledPlanFor(
      uint64_t bound_mask) const;

  /// True when a plan for `bound_mask` is already cached (no compilation is
  /// triggered). Lets tests and the multi-view pre-warm verify coverage.
  bool HasCompiledPlanFor(uint64_t bound_mask) const;

  /// A canonical rendering of the view's STRUCTURE — base relations with
  /// their schemas, projection indices, and condition — excluding the view's
  /// name. Two views with equal structure keys compute the same function of
  /// the base relations, so term signatures keyed on this string share work
  /// across distinct-but-identical ViewDefinition objects (the multi-view
  /// warehouse registers one per child). Computed once at Create.
  const std::string& structure_key() const { return structure_key_; }

  /// Renders e.g. "V = pi_{W}(sigma_{true}(r1 x r2))".
  std::string ToString() const;

 private:
  ViewDefinition() = default;

  std::string name_;
  std::vector<BaseRelationDef> relations_;
  std::vector<size_t> relation_offsets_;
  Schema combined_schema_;
  Schema output_schema_;
  std::vector<size_t> projection_indices_;
  Predicate cond_;
  BoundPredicate bound_cond_;
  Predicate residual_cond_;
  std::shared_ptr<const SchemaConstraints> constraints_;
  bool keys_projected_ = false;
  std::vector<EquiEdge> equi_edges_;
  std::string structure_key_;

  // Compiled-plan cache, keyed by bound mask. Mutable: plans are derived
  // data over the immutable definition, filled lazily under plan_mu_ (terms
  // for one view evaluate concurrently in the parallel per-term path).
  mutable std::mutex plan_mu_;
  mutable std::map<uint64_t, std::shared_ptr<const CompiledDeltaPlan>>
      plan_cache_;
};

using ViewDefinitionPtr = std::shared_ptr<const ViewDefinition>;

}  // namespace wvm

#endif  // WVM_QUERY_VIEW_DEF_H_
