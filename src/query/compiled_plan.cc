#include "query/compiled_plan.h"

#include <optional>
#include <utility>

#include "common/strings.h"
#include "relational/column_block.h"
#include "relational/key_index.h"

namespace wvm {

uint64_t TermBoundMask(const Term& term) {
  uint64_t mask = 0;
  const std::vector<TermOperand>& ops = term.operands();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].is_bound) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

Result<CompiledDeltaPlan> CompiledDeltaPlan::Compile(
    const ViewDefinition& view, uint64_t bound_mask) {
  const size_t n = view.num_relations();
  CompiledDeltaPlan plan;
  plan.bound_mask_ = bound_mask;
  plan.operands_.reserve(n);
  for (const BaseRelationDef& r : view.relations()) {
    plan.operands_.push_back(OperandInfo{r.name, r.schema.size()});
  }

  const size_t width = view.combined_schema().size();
  std::vector<bool> joined(n, false);
  // pos_of[c] = join-order column holding combined column c, or kNotJoined.
  std::vector<size_t> pos_of(width, kNotJoined);
  const auto is_bound = [bound_mask](size_t p) {
    return ((bound_mask >> p) & 1) != 0;
  };

  // Seed at the first bound operand (a delta term then starts from the
  // substituted singleton); an unsubstituted plan seeds at position 0.
  size_t seed = 0;
  for (size_t p = 0; p < n; ++p) {
    if (is_bound(p)) {
      seed = p;
      break;
    }
  }
  plan.order_.push_back(seed);
  joined[seed] = true;
  size_t acc_width = plan.operands_[seed].arity;
  for (size_t a = 0; a < plan.operands_[seed].arity; ++a) {
    pos_of[view.relation_offset(seed) + a] = a;
  }

  for (size_t step = 1; step < n; ++step) {
    // Static join order: remaining bound operands first (they are runtime
    // singletons), then operands connected to the accumulated block through
    // an equi-edge, then — only when nothing is connected — a cross
    // product. Ties break by position, which keeps plans deterministic.
    CompiledJoinStep best;
    bool have_best = false;
    bool best_bound = false;
    for (size_t p = 0; p < n; ++p) {
      if (joined[p]) {
        continue;
      }
      CompiledJoinStep candidate = JoinStepTo(view, pos_of, p);
      const bool bound = is_bound(p);
      const bool connected = !candidate.acc_keys.empty();
      if (!have_best || (bound && !best_bound) ||
          (bound == best_bound && connected && best.acc_keys.empty())) {
        best = std::move(candidate);
        have_best = true;
        best_bound = bound;
      }
    }

    const size_t offset = view.relation_offset(best.operand);
    const size_t arity = plan.operands_[best.operand].arity;
    plan.order_.push_back(best.operand);
    joined[best.operand] = true;
    for (size_t a = 0; a < arity; ++a) {
      pos_of[offset + a] = acc_width + a;
    }
    acc_width += arity;
    plan.steps_.push_back(std::move(best));
  }
  plan.layout_ = std::move(pos_of);

  // Fuse the residual condition into flat comparison leaves over combined
  // columns. Anything that is not a plain comparison falls back to a
  // BoundPredicate walk, pre-bound here against the combined schema so
  // execution never rebinds.
  if (!view.residual_cond().IsTrue()) {
    bool need_fallback = false;
    for (const Predicate& conjunct : view.residual_cond().TopLevelConjuncts()) {
      std::optional<Predicate::ComparisonLeaf> leaf = conjunct.AsComparison();
      if (!leaf.has_value()) {
        need_fallback = true;
        break;
      }
      CompiledResidualLeaf out;
      out.op = leaf->op;
      const auto resolve = [&](const Operand& o, bool* is_col, size_t* col,
                               Value* constant) {
        if (o.is_attr()) {
          std::optional<size_t> c = view.combined_schema().IndexOf(o.attr_name());
          if (!c.has_value()) {
            return false;
          }
          *is_col = true;
          *col = *c;
        } else {
          *is_col = false;
          *constant = o.constant();
        }
        return true;
      };
      if (!resolve(leaf->lhs, &out.lhs_is_col, &out.lhs_col, &out.lhs_const) ||
          !resolve(leaf->rhs, &out.rhs_is_col, &out.rhs_col, &out.rhs_const)) {
        need_fallback = true;
        break;
      }
      plan.residual_.leaves.push_back(std::move(out));
    }
    if (need_fallback) {
      plan.residual_.leaves.clear();
      WVM_ASSIGN_OR_RETURN(plan.residual_.fallback,
                           view.residual_cond().Bind(view.combined_schema()));
    }
  }

  plan.output_cols_ = view.projection_indices();
  plan.output_schema_ = view.output_schema();
  return plan;
}

CompiledJoinStep JoinStepTo(const ViewDefinition& view,
                            const std::vector<size_t>& pos_of, size_t p) {
  const size_t offset = view.relation_offset(p);
  const size_t arity = view.relations()[p].schema.size();
  CompiledJoinStep step;
  step.operand = p;
  for (const ViewDefinition::EquiEdge& e : view.equi_edges()) {
    for (const auto& [a, b] :
         {std::pair<size_t, size_t>{e.left_column, e.right_column},
          std::pair<size_t, size_t>{e.right_column, e.left_column}}) {
      if (b >= offset && b < offset + arity && pos_of[a] != kNotJoined) {
        step.acc_keys.push_back(pos_of[a]);
        step.op_keys.push_back(b - offset);
      }
    }
  }
  return step;
}

bool StepKeysMatch(const ColumnBlock& acc, size_t row,
                   const CompiledJoinStep& step, const Tuple& tuple) {
  for (size_t k = 0; k < step.acc_keys.size(); ++k) {
    if (!(acc.at(row, step.acc_keys[k]) == tuple.value(step.op_keys[k]))) {
      return false;
    }
  }
  return true;
}

Status CheckBoundArity(const Term& term, size_t position) {
  const TermOperand& op = term.operands()[position];
  const size_t arity = term.view()->relations()[position].schema.size();
  if (op.bound.tuple.size() != arity) {
    return Status::InvalidArgument(
        StrCat("bound tuple ", op.bound.tuple.ToString(),
               " arity mismatch for relation ",
               term.view()->relations()[position].name));
  }
  return Status::OK();
}

void ProbeStep(const ColumnBlock& acc, const CompiledJoinStep& step,
               const RelationKeyIndex& index, ColumnBlock* next) {
  const std::vector<size_t>& acc_keys = step.acc_keys;
  for (size_t i = 0; i < acc.rows(); ++i) {
    const auto value_at = [&](size_t k) -> const Value& {
      return acc.at(i, acc_keys[k]);
    };
    const size_t h = RelationKeyIndex::ProbeHash(acc_keys.size(), value_at);
    index.ForEachMatch(h, value_at, [&](const Tuple& row, int64_t count) {
      next->AppendJoined(acc, i, row, count);
    });
  }
}

Relation GatherFiltered(const ColumnBlock& acc,
                        const std::vector<size_t>& layout,
                        const CompiledCondition& cond,
                        const std::vector<size_t>& projection,
                        const Schema& schema, int64_t scale) {
  Relation out(schema);
  if (acc.empty() || scale == 0) {
    return out;
  }
  std::vector<size_t> out_cols(projection.size());
  for (size_t c = 0; c < projection.size(); ++c) {
    out_cols[c] = layout[projection[c]];
  }
  const bool use_fallback = !cond.fallback.IsTrue();
  std::vector<Value> full_row(use_fallback ? layout.size() : 0);
  std::vector<Value> out_row(out_cols.size());
  Relation::CountsMap& m = out.MutableEntries();
  m.reserve(acc.rows());
  for (size_t i = 0; i < acc.rows(); ++i) {
    bool pass = true;
    for (const CompiledResidualLeaf& leaf : cond.leaves) {
      const Value& l =
          leaf.lhs_is_col ? acc.at(i, layout[leaf.lhs_col]) : leaf.lhs_const;
      const Value& r =
          leaf.rhs_is_col ? acc.at(i, layout[leaf.rhs_col]) : leaf.rhs_const;
      if (!EvalCompareOp(l, leaf.op, r)) {
        pass = false;
        break;
      }
    }
    if (pass && use_fallback) {
      for (size_t c = 0; c < layout.size(); ++c) {
        full_row[c] = acc.at(i, layout[c]);
      }
      pass = cond.fallback.Eval(Tuple(full_row));
    }
    if (!pass) {
      continue;
    }
    for (size_t c = 0; c < out_cols.size(); ++c) {
      out_row[c] = acc.at(i, out_cols[c]);
    }
    m.AddCount(Tuple(out_row), acc.count(i) * scale);
  }
  return out;
}

namespace {

// Joins `acc` against a bound singleton: rows whose key columns equal the
// tuple's key columns extend by the tuple, multiplied by its sign.
void BoundStep(const ColumnBlock& acc, const CompiledJoinStep& step,
               const Tuple& tuple, int sign, ColumnBlock* next) {
  for (size_t i = 0; i < acc.rows(); ++i) {
    if (StepKeysMatch(acc, i, step, tuple)) {
      next->AppendJoined(acc, i, tuple, sign);
    }
  }
}

// Output pre-sizing for `rows` probes of `per_key` matches each, clamped.
size_t ReserveFor(size_t rows, size_t per_key) {
  constexpr size_t kMaxReserve = size_t{1} << 20;
  per_key = per_key == 0 ? 1 : per_key;
  return rows < kMaxReserve / per_key ? rows * per_key : kMaxReserve;
}

}  // namespace

Result<Relation> ExecuteCompiledPlan(const CompiledDeltaPlan& plan,
                                     const Term& term,
                                     const Catalog& catalog) {
  // Validate every operand up front, as EvaluateTermNaive does by
  // materializing them all: a bad bound tuple or a missing relation must
  // error even when an earlier join step already produced nothing.
  for (size_t i = 0; i < plan.operands_.size(); ++i) {
    if (term.operands()[i].is_bound) {
      WVM_RETURN_IF_ERROR(CheckBoundArity(term, i));
    } else {
      WVM_RETURN_IF_ERROR(catalog.Get(plan.operands_[i].relation).status());
    }
  }

  const size_t seed = plan.order_[0];
  ColumnBlock acc;
  const TermOperand& seed_op = term.operands()[seed];
  if (seed_op.is_bound) {
    acc = ColumnBlock::FromSignedTuple(seed_op.bound.tuple,
                                       seed_op.bound.sign);
  } else {
    WVM_ASSIGN_OR_RETURN(const Relation* stored,
                         catalog.Get(plan.operands_[seed].relation));
    acc = ColumnBlock::FromRelation(*stored);
  }

  for (const CompiledJoinStep& step : plan.steps_) {
    if (acc.empty()) {
      break;
    }
    const TermOperand& op = term.operands()[step.operand];
    const size_t arity = plan.operands_[step.operand].arity;
    ColumnBlock next(acc.width() + arity);
    if (op.is_bound) {
      next.Reserve(acc.rows());
      BoundStep(acc, step, op.bound.tuple, op.bound.sign, &next);
    } else {
      WVM_ASSIGN_OR_RETURN(
          std::shared_ptr<const RelationKeyIndex> index,
          catalog.KeyIndexFor(plan.operands_[step.operand].relation,
                              step.op_keys));
      next.Reserve(ReserveFor(acc.rows(), index->EstimatedRowsPerKey()));
      ProbeStep(acc, step, *index, &next);
    }
    acc = std::move(next);
  }

  return GatherFiltered(acc, plan.layout_, plan.residual_, plan.output_cols_,
                        plan.output_schema_, term.coefficient());
}

Result<Relation> ExecuteCompiledPlanOnOperands(
    const CompiledDeltaPlan& plan, const std::vector<Relation>& operands) {
  if (operands.size() != plan.operands_.size()) {
    return Status::InvalidArgument(
        StrCat("expected ", plan.operands_.size(), " operands, got ",
               operands.size()));
  }
  ColumnBlock acc = ColumnBlock::FromRelation(operands[plan.order_[0]]);
  for (const CompiledJoinStep& step : plan.steps_) {
    const Relation& rel = operands[step.operand];
    ColumnBlock next(acc.width() + rel.schema().size());
    if (acc.empty() || rel.IsEmpty()) {
      acc = std::move(next);
      break;
    }
    RelationKeyIndex index(rel.shared_entries(), step.op_keys);
    next.Reserve(ReserveFor(acc.rows(), index.EstimatedRowsPerKey()));
    ProbeStep(acc, step, index, &next);
    acc = std::move(next);
  }
  return GatherFiltered(acc, plan.layout_, plan.residual_, plan.output_cols_,
                        plan.output_schema_, /*scale=*/1);
}

}  // namespace wvm
