#ifndef WVM_QUERY_EVALUATOR_H_
#define WVM_QUERY_EVALUATOR_H_

#include <vector>

#include "common/result.h"
#include "query/catalog.h"
#include "query/query.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/relation.h"

namespace wvm {

/// Logical (in-memory) evaluation of terms, queries and views against a
/// catalog. Bound operands contribute one tuple with multiplicity equal to
/// their sign, so answers to queries over deletions carry minus-signed
/// tuples exactly as in Section 4.1.
///
/// EvaluateTerm is the one runtime evaluator: it executes the view's cached
/// CompiledDeltaPlan for the term's bound mask (equi-key probes along the
/// view's join edges, cross product only between genuinely unconnected
/// operands, then the residual condition and the projection). The physical
/// evaluator in src/source plans its own probes and scans to charge I/O,
/// and joins whole operands it has read through the same mask-0 plan.
/// EvaluateTermNaive is the test reference both are differential-tested
/// against.

/// The qualified slice of the combined schema covering relation position
/// `i` of the view.
Schema OperandSliceSchema(const ViewDefinition& view, size_t i);

/// Evaluates one term, including its coefficient, through the compiled
/// plan for its bound mask.
Result<Relation> EvaluateTerm(const Term& term, const Catalog& catalog);

/// Reference implementation: full cross product, then select, then project.
/// Exponential in relation count; for tests only.
Result<Relation> EvaluateTermNaive(const Term& term, const Catalog& catalog);

/// Sum of all term results.
Result<Relation> EvaluateQuery(const Query& query, const Catalog& catalog);

/// Per-term results, aligned with query.terms(). LCA consumes these to
/// split per-update deltas.
Result<std::vector<Relation>> EvaluateQueryPerTerm(const Query& query,
                                                   const Catalog& catalog);

/// The full view contents V[state] over the catalog.
Result<Relation> EvaluateView(const ViewDefinitionPtr& view,
                              const Catalog& catalog);

}  // namespace wvm

#endif  // WVM_QUERY_EVALUATOR_H_
