#ifndef WVM_QUERY_COMPILED_PLAN_H_
#define WVM_QUERY_COMPILED_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/catalog.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/predicate.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace wvm {

class ColumnBlock;
class RelationKeyIndex;

/// Bitmask of bound operand positions of a term — the shape key under which
/// compiled plans are cached. All terms with the same view and the same set
/// of bound positions share one plan (the bound values are runtime inputs).
/// One bit per position fits because ViewDefinition::Create caps a view at
/// ViewDefinition::kMaxRelations relations.
uint64_t TermBoundMask(const Term& term);

/// One fused conjunct, pre-resolved to combined-schema column indices (or
/// constants). Evaluated with EvalCompareOp, so semantics match the
/// BoundPredicate walk exactly.
struct CompiledResidualLeaf {
  bool lhs_is_col = false;
  size_t lhs_col = 0;
  Value lhs_const;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_col = false;
  size_t rhs_col = 0;
  Value rhs_const;
};

/// A condition compiled for GatherFiltered: flat comparison leaves and, when
/// some conjunct is not a plain comparison, a fallback predicate bound
/// against the combined schema (true when every conjunct fused).
struct CompiledCondition {
  std::vector<CompiledResidualLeaf> leaves;
  BoundPredicate fallback;
};

/// One join step of a compiled plan: probe the accumulated block's
/// `acc_keys` columns (block layout) against operand `operand`'s `op_keys`
/// columns (relation-local). Empty key lists mean cross product.
struct CompiledJoinStep {
  size_t operand = 0;
  std::vector<size_t> acc_keys;
  std::vector<size_t> op_keys;
};

/// Marks a combined-schema column whose operand is not in the block yet.
inline constexpr size_t kNotJoined = std::numeric_limits<size_t>::max();

/// The step that joins operand `p` to a block whose layout is `pos_of`
/// (pos_of[c] = block column of combined column c, or kNotJoined): one key
/// pair per equi-edge between a placed column and a column of p, in
/// equi_edges() order, left-to-right before right-to-left.
CompiledJoinStep JoinStepTo(const ViewDefinition& view,
                            const std::vector<size_t>& pos_of, size_t p);

/// True when row `row` of `acc` carries `tuple`'s step.op_keys values in
/// its step.acc_keys columns.
bool StepKeysMatch(const ColumnBlock& acc, size_t row,
                   const CompiledJoinStep& step, const Tuple& tuple);

/// InvalidArgument when the bound tuple at `position` of `term` does not
/// have its relation's arity. Mirrors EvaluateTermNaive's check and error
/// text, so every evaluator and the reference fail identically.
Status CheckBoundArity(const Term& term, size_t position);

/// Appends to `next` every join of an `acc` row with the rows of `index`
/// (keyed on step.op_keys) whose keys equal the row's step.acc_keys values.
void ProbeStep(const ColumnBlock& acc, const CompiledJoinStep& step,
               const RelationKeyIndex& index, ColumnBlock* next);

/// The fused finish of every join over a ColumnBlock: keeps the rows of
/// `acc` that satisfy `cond`, projects them onto the combined-schema
/// columns `projection`, scales each multiplicity by `scale` and merges
/// equal rows into a Relation under `schema`. `layout[c]` is the block
/// column holding combined column c.
Relation GatherFiltered(const ColumnBlock& acc,
                        const std::vector<size_t>& layout,
                        const CompiledCondition& cond,
                        const std::vector<size_t>& projection,
                        const Schema& schema, int64_t scale);

/// A flat physical plan for one (view, bound mask) delta-query shape,
/// compiled once at view registration and executed by the tight-loop
/// columnar executor; every in-memory term evaluation runs through one:
///
///   * a static join order seeded at the (first) bound operand, so a delta
///     term starts from the substituted update tuple and every subsequent
///     step is an index probe along a pre-resolved equi-key;
///   * residual conjuncts fused into flat column-compare leaves (with a
///     pre-bound BoundPredicate fallback for non-comparison conjuncts);
///   * the output projection read through the join-order layout, so the
///     final gather touches only the projected columns.
///
/// Plans hold no relation data; bound tuples and catalog contents are
/// runtime inputs, which is what makes one plan reusable across every
/// update hitting the same relation with the same sign shape.
class CompiledDeltaPlan {
 public:
  /// Compiles the plan for `bound_mask` (bit i = operand i is bound).
  /// Fails only if the residual cannot be bound against the join-order
  /// schema, which a view that passed ViewDefinition::Create never hits.
  static Result<CompiledDeltaPlan> Compile(const ViewDefinition& view,
                                           uint64_t bound_mask);

  uint64_t bound_mask() const { return bound_mask_; }
  /// Operand positions in execution order; order()[0] is the seed.
  const std::vector<size_t>& order() const { return order_; }
  /// Join steps, aligned with order()[1..].
  const std::vector<CompiledJoinStep>& steps() const { return steps_; }
  const std::vector<CompiledResidualLeaf>& residual() const {
    return residual_.leaves;
  }
  /// True when the residual could not be fully fused into comparison
  /// leaves; the executor then walks the residual predicate on each row
  /// re-formed in combined-schema order.
  bool uses_fallback_residual() const {
    return !residual_.fallback.IsTrue();
  }
  /// Combined-schema columns of the output projection.
  const std::vector<size_t>& output_cols() const { return output_cols_; }
  const Schema& output_schema() const { return output_schema_; }

 private:
  friend Result<Relation> ExecuteCompiledPlan(const CompiledDeltaPlan& plan,
                                              const Term& term,
                                              const Catalog& catalog);
  friend Result<Relation> ExecuteCompiledPlanOnOperands(
      const CompiledDeltaPlan& plan, const std::vector<Relation>& operands);

  struct OperandInfo {
    std::string relation;
    size_t arity = 0;
  };

  CompiledDeltaPlan() = default;

  uint64_t bound_mask_ = 0;
  std::vector<size_t> order_;
  std::vector<CompiledJoinStep> steps_;
  std::vector<OperandInfo> operands_;  // by original operand position
  std::vector<size_t> layout_;  // combined column -> join-order column
  CompiledCondition residual_;
  std::vector<size_t> output_cols_;
  Schema output_schema_;
};

/// Executes `plan` for `term` against `catalog` using cached relation key
/// indexes, applying the term's coefficient. The plan must have been
/// compiled for `term`'s view and bound mask.
Result<Relation> ExecuteCompiledPlan(const CompiledDeltaPlan& plan,
                                     const Term& term, const Catalog& catalog);

/// Executes a mask-0 `plan` over fully materialized operand relations (one
/// per position, each carrying its qualified slice schema); builds
/// transient probe indexes instead of catalog-cached ones. No coefficient
/// is applied.
Result<Relation> ExecuteCompiledPlanOnOperands(
    const CompiledDeltaPlan& plan, const std::vector<Relation>& operands);

}  // namespace wvm

#endif  // WVM_QUERY_COMPILED_PLAN_H_
