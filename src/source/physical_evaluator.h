#ifndef WVM_SOURCE_PHYSICAL_EVALUATOR_H_
#define WVM_SOURCE_PHYSICAL_EVALUATOR_H_

#include <map>
#include <string>

#include "channel/message.h"
#include "common/result.h"
#include "query/query.h"
#include "query/term.h"
#include "storage/stored_relation.h"

namespace wvm {

/// The two physical evaluation regimes of Section 6.3.
enum class PhysicalScenario {
  /// Scenario 1: memory-resident indexes, ample memory. Terms are evaluated
  /// by probing outward from bound tuples along equi-join edges through the
  /// declared indexes, with a cost-based choice between an index probe and
  /// a full scan per relation (reproducing the paper's 3*min(J,I)+3 plan
  /// selection). The expansion runs on the compiled executor's pieces: a
  /// ColumnBlock frontier, the plan's join-step keys, its probe step over a
  /// scanned relation, and its fused filter-and-project gather, which
  /// applies the view's full condition. Unbound (recomputation) terms read
  /// every relation once and join in memory through the mask-0 plan.
  kIndexedMemory,
  /// Scenario 2: no indexes, only `buffer_blocks` memory blocks, blocked
  /// nested-loop joins. With two unbound relations the outer gets a
  /// double-block window (the paper's I' = ceil(C/2K) iterations); with
  /// three, one block each.
  kNestedLoopLimited,
};

struct PhysicalConfig {
  PhysicalScenario scenario = PhysicalScenario::kIndexedMemory;
  /// K of Table 1: tuples per physical block.
  int tuples_per_block = 20;
  /// Scenario 2 memory budget in blocks (the paper uses 3).
  int buffer_blocks = 3;
  /// Section 6.3 extensions the paper expects would improve ECA's I/O:
  /// `cache_within_query` charges each (relation, block) at most once per
  /// query; `optimize_terms` evaluates structurally identical terms of a
  /// multi-term query only once (their answers differ by coefficient
  /// only), through the same signature lookup as the term cache with a
  /// lifetime of one query. Both default off to match the paper's
  /// pessimistic accounting.
  bool cache_within_query = false;
  bool optimize_terms = false;
};

using StorageMap = std::map<std::string, StoredRelation>;

class TermCache;

/// Evaluates one term against the blocked storage, charging `io` per the
/// scenario's rules. The returned relation includes the term's coefficient
/// and bound-tuple signs. Every term is evaluated independently with no
/// cross-term caching, matching the paper's no-caching assumption.
Result<Relation> EvaluateTermPhysical(const Term& term,
                                      const StorageMap& storage,
                                      const PhysicalConfig& config,
                                      IOStats* io, ReadCache* cache = nullptr);

/// Evaluates all terms of `query` and packages the per-term answers (with
/// their delta tags) into one AnswerMessage.
///
/// When `term_cache` is supplied (and enabled), or `config.optimize_terms`
/// is set, every term is looked up by its structural signature first, in
/// the cache or in a map scoped to this query: hits charge no page reads,
/// misses are evaluated normalized (coefficient +1, bound signs +1),
/// charged to `io`, and filled in — so later identical terms of the same
/// query hit the just-filled entry. That path is serial per query;
/// concurrency comes from evaluating independent queries of a batch in
/// parallel (Source::EvaluateQueryBatch). Otherwise each term is evaluated
/// as it is, concurrently on the shared thread pool when there are several
/// terms and no `cache_within_query`.
Result<AnswerMessage> EvaluateQueryPhysical(const Query& query,
                                            const StorageMap& storage,
                                            const PhysicalConfig& config,
                                            IOStats* io,
                                            TermCache* term_cache = nullptr);

}  // namespace wvm

#endif  // WVM_SOURCE_PHYSICAL_EVALUATOR_H_
