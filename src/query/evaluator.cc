#include "query/evaluator.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "query/compiled_plan.h"
#include "relational/algebra.h"

namespace wvm {

Schema OperandSliceSchema(const ViewDefinition& view, size_t i) {
  const size_t offset = view.relation_offset(i);
  const size_t arity = view.relations()[i].schema.size();
  std::vector<size_t> indices(arity);
  for (size_t a = 0; a < arity; ++a) {
    indices[a] = offset + a;
  }
  return view.combined_schema().Project(indices);
}

namespace {

// Materializes operand `i` of `term`: either the bound signed tuple or the
// catalog relation re-labelled (zero-copy) with the qualified slice of the
// combined schema.
Result<Relation> MaterializeOperand(const Term& term, size_t i,
                                    const Catalog& catalog) {
  const ViewDefinition& view = *term.view();
  Schema slice = OperandSliceSchema(view, i);
  const TermOperand& op = term.operands()[i];
  if (op.is_bound) {
    if (op.bound.tuple.size() != slice.size()) {
      return Status::InvalidArgument(
          StrCat("bound tuple ", op.bound.tuple.ToString(),
                 " arity mismatch for relation ", view.relations()[i].name));
    }
    Relation r(std::move(slice));
    r.Insert(op.bound.tuple, op.bound.sign);
    return r;
  }
  WVM_ASSIGN_OR_RETURN(const Relation* stored,
                       catalog.Get(view.relations()[i].name));
  return stored->WithSchema(std::move(slice));
}

}  // namespace

Result<Relation> EvaluateTerm(const Term& term, const Catalog& catalog) {
  WVM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledDeltaPlan> plan,
                       term.view()->CompiledPlanFor(TermBoundMask(term)));
  return ExecuteCompiledPlan(*plan, term, catalog);
}

Result<Relation> EvaluateTermNaive(const Term& term, const Catalog& catalog) {
  const ViewDefinition& view = *term.view();
  WVM_ASSIGN_OR_RETURN(Relation acc, MaterializeOperand(term, 0, catalog));
  for (size_t i = 1; i < view.num_relations(); ++i) {
    WVM_ASSIGN_OR_RETURN(Relation next, MaterializeOperand(term, i, catalog));
    WVM_ASSIGN_OR_RETURN(acc, CrossProduct(acc, next));
  }
  Relation filtered = SelectBound(acc, view.bound_cond());
  Relation projected = ProjectIndices(filtered, view.projection_indices());
  return projected.Scaled(term.coefficient());
}

Result<Relation> EvaluateQuery(const Query& query, const Catalog& catalog) {
  if (query.terms().empty()) {
    return Relation();
  }
  WVM_ASSIGN_OR_RETURN(std::vector<Relation> parts,
                       EvaluateQueryPerTerm(query, catalog));
  Relation out = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    out.Add(parts[i]);
  }
  return out;
}

Result<std::vector<Relation>> EvaluateQueryPerTerm(const Query& query,
                                                   const Catalog& catalog) {
  const std::vector<Term>& terms = query.terms();
  std::vector<Relation> out;
  out.reserve(terms.size());

  if (terms.size() >= 2 && ThreadPool::Shared().num_threads() >= 2) {
    // Terms only read the catalog (see DESIGN.md, "Data plane"), so they
    // evaluate concurrently; results are collected positionally, making the
    // output — including any error chosen — identical to the serial loop.
    std::vector<std::optional<Result<Relation>>> parts(terms.size());
    ParallelFor(terms.size(), [&](size_t i) {
      parts[i] = EvaluateTerm(terms[i], catalog);
    });
    for (std::optional<Result<Relation>>& part : parts) {
      if (!part->ok()) {
        return part->status();
      }
      out.push_back(*std::move(*part));
    }
    return out;
  }

  for (const Term& t : terms) {
    WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, catalog));
    out.push_back(std::move(part));
  }
  return out;
}

Result<Relation> EvaluateView(const ViewDefinitionPtr& view,
                              const Catalog& catalog) {
  return EvaluateTerm(Term::FromView(view), catalog);
}

}  // namespace wvm
