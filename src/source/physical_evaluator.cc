#include "source/physical_evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "relational/column_block.h"
#include "relational/key_index.h"
#include "source/term_cache.h"

namespace wvm {

namespace {

Result<const StoredRelation*> FindStored(const StorageMap& storage,
                                         const std::string& name) {
  auto it = storage.find(name);
  if (it == storage.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not stored"));
  }
  return &it->second;
}

// In-memory join of fully materialized operands through the view's cached
// mask-0 plan. All page I/O was already charged while the operands were
// read, so the join itself changes no counter.
Result<Relation> JoinOperandsPlanned(const ViewDefinition& view,
                                     const std::vector<Relation>& operands) {
  WVM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledDeltaPlan> plan,
                       view.CompiledPlanFor(0));
  return ExecuteCompiledPlanOnOperands(*plan, operands);
}

// ---------------------------------------------------------------------------
// Scenario 1: indexed, ample memory.
// ---------------------------------------------------------------------------

Result<Relation> EvaluateIndexed(const Term& term, const StorageMap& storage,
                                 IOStats* io, ReadCache* cache) {
  const ViewDefinition& view = *term.view();
  const size_t n = view.num_relations();

  // Fully unbound term (view recomputation): read every relation once and
  // join in memory — the paper's "read into memory all three relations".
  if (term.IsUnsubstituted()) {
    io->LogPlan("recompute: read every relation once, join in memory");
    std::vector<Relation> operands;
    operands.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      WVM_ASSIGN_OR_RETURN(const StoredRelation* sr,
                           FindStored(storage, view.relations()[i].name));
      Relation op(OperandSliceSchema(view, i));
      for (const Tuple& t : sr->FullScan(io, cache)) {
        op.Insert(t, 1);
      }
      operands.push_back(std::move(op));
    }
    WVM_ASSIGN_OR_RETURN(Relation projected,
                         JoinOperandsPlanned(view, operands));
    return projected.Scaled(term.coefficient());
  }

  // The frontier is a block of the operands joined so far; pos_of maps each
  // combined-schema column to its block column (kNotJoined until placed).
  // It is seeded with the cross product of the bound tuples (each a
  // memory-resident singleton shipped with the query), so one row.
  // Deliberately no join links here: a doubly-bound compensation term whose
  // tuples disagree on a join attribute still runs its probes — the paper's
  // cost model charges them — and dies in the final filter instead.
  std::vector<size_t> pos_of(view.combined_schema().size(), kNotJoined);
  std::vector<Value> seed;
  int64_t seed_count = 1;
  std::vector<bool> done(n, false);
  for (size_t i = 0; i < n; ++i) {
    const TermOperand& op = term.operands()[i];
    if (!op.is_bound) {
      continue;
    }
    WVM_RETURN_IF_ERROR(CheckBoundArity(term, i));
    const size_t arity = view.relations()[i].schema.size();
    for (size_t a = 0; a < arity; ++a) {
      pos_of[view.relation_offset(i) + a] = seed.size();
      seed.push_back(op.bound.tuple.value(a));
    }
    seed_count *= op.bound.sign;
    done[i] = true;
  }
  ColumnBlock frontier(seed.size());
  frontier.AppendRow(seed, seed_count);

  // Expand one relation at a time, choosing the cheapest access path.
  for (size_t expanded = term.NumBound(); expanded < n; ++expanded) {
    // The probe cost counts the frontier as a bag: a row stands for |count|
    // tuples, since a scanned relation's copies of a tuple join as one row
    // of their multiplicity.
    int64_t frontier_tuples = 0;
    for (size_t i = 0; i < frontier.rows(); ++i) {
      frontier_tuples += std::abs(frontier.count(i));
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double best_cost = kInf;
    size_t best_p = 0;
    bool best_is_probe = false;  // else a full scan
    size_t best_key = 0;         // the probed key of the step
    std::string best_attr;

    for (size_t p = 0; p < n; ++p) {
      if (done[p]) {
        continue;
      }
      WVM_ASSIGN_OR_RETURN(const StoredRelation* sr,
                           FindStored(storage, view.relations()[p].name));
      // Full scan is always available.
      const double scan_cost = static_cast<double>(sr->NumBlocks());
      if (scan_cost < best_cost) {
        best_cost = scan_cost;
        best_p = p;
        best_is_probe = false;
      }
      // Index probes along the step's keys.
      const CompiledJoinStep step = JoinStepTo(view, pos_of, p);
      for (size_t k = 0; k < step.op_keys.size(); ++k) {
        const std::string& attr =
            view.relations()[p].schema.attribute(step.op_keys[k]).name;
        const IndexDef* idx = sr->FindIndex(attr);
        if (idx == nullptr) {
          continue;
        }
        const double matches = sr->EstimatedMatchesPerKey(attr);
        const double per_probe =
            idx->clustered
                ? std::max(1.0, std::ceil(matches / sr->tuples_per_block()))
                : matches;
        const double cost = static_cast<double>(frontier_tuples) * per_probe;
        if (cost < best_cost) {
          best_cost = cost;
          best_p = p;
          best_is_probe = true;
          best_key = k;
          best_attr = attr;
        }
      }
    }

    WVM_ASSIGN_OR_RETURN(const StoredRelation* sr,
                         FindStored(storage, view.relations()[best_p].name));
    const CompiledJoinStep step = JoinStepTo(view, pos_of, best_p);
    const size_t arity = view.relations()[best_p].schema.size();
    ColumnBlock next(frontier.width() + arity);

    if (best_is_probe) {
      io->LogPlan(StrCat("probe ", view.relations()[best_p].name, ".",
                         best_attr,
                         sr->FindIndex(best_attr)->clustered
                             ? " (clustered index)"
                             : " (non-clustered index)",
                         " from ", frontier_tuples, " frontier rows"));
      // Probe once per DISTINCT value of the probed column: when the value
      // comes straight from a bound tuple all frontier rows share it and
      // the paper charges a single probe (e.g. IO2 = 2 for Q2), while
      // generically distinct values charge one probe each (IO1 = 1 + J for
      // Q1). Every key of the step is then checked. No caching across
      // expansion steps or terms.
      const size_t probe_col = step.acc_keys[best_key];
      std::unordered_map<Value, std::vector<Tuple>, ValueHash> probed;
      for (size_t i = 0; i < frontier.rows(); ++i) {
        const Value& key = frontier.at(i, probe_col);
        auto it = probed.find(key);
        if (it == probed.end()) {
          WVM_ASSIGN_OR_RETURN(std::vector<Tuple> matches,
                               sr->IndexProbe(best_attr, key, io, cache));
          it = probed.emplace(key, std::move(matches)).first;
        }
        for (const Tuple& t : it->second) {
          if (StepKeysMatch(frontier, i, step, t)) {
            next.AppendJoined(frontier, i, t, 1);
          }
        }
      }
    } else {
      io->LogPlan(StrCat("scan ", view.relations()[best_p].name, " (",
                         sr->NumBlocks(), " blocks), hash join"));
      Relation scanned(view.relations()[best_p].schema);
      for (const Tuple& t : sr->FullScan(io, cache)) {
        scanned.Insert(t, 1);
      }
      const RelationKeyIndex index(scanned.shared_entries(), step.op_keys);
      ProbeStep(frontier, step, index, &next);
    }
    for (size_t a = 0; a < arity; ++a) {
      pos_of[view.relation_offset(best_p) + a] = frontier.width() + a;
    }
    frontier = std::move(next);
    done[best_p] = true;
  }

  // The full condition, not just the residual: the bound operands were
  // seeded by plain cross product, so a spanning equi-edge between two
  // bound tuples is enforced only here.
  return GatherFiltered(frontier, pos_of,
                        CompiledCondition{{}, view.bound_cond()},
                        view.projection_indices(), view.output_schema(),
                        term.coefficient());
}

// ---------------------------------------------------------------------------
// Scenario 2: no indexes, blocked nested loops within `buffer_blocks`.
// ---------------------------------------------------------------------------

Result<Relation> EvaluateNestedLoop(const Term& term,
                                    const StorageMap& storage,
                                    const PhysicalConfig& config,
                                    IOStats* io, ReadCache* cache) {
  const ViewDefinition& view = *term.view();
  const size_t n = view.num_relations();

  // Bound singletons live in memory (they arrived with the query).
  std::vector<Relation> operands(n);
  std::vector<size_t> unbound;
  for (size_t i = 0; i < n; ++i) {
    operands[i] = Relation(OperandSliceSchema(view, i));
    if (term.operands()[i].is_bound) {
      const SignedTuple& st = term.operands()[i].bound;
      operands[i].Insert(st.tuple, st.sign);
    } else {
      unbound.push_back(i);
    }
  }

  Relation result(view.output_schema());
  const size_t m = unbound.size();

  if (m == 0) {
    WVM_ASSIGN_OR_RETURN(result, JoinOperandsPlanned(view, operands));
  } else {
    io->LogPlan(StrCat("blocked nested loop over ", m,
                       " unbound relations"));
    // The outermost unbound relation gets whatever buffer is left after
    // reserving one block for each other unbound relation; with the paper's
    // 3 blocks this yields a double-block outer window for two unbound
    // relations and single blocks for three.
    const int outer_window =
        std::max(1, config.buffer_blocks - static_cast<int>(m) + 1);

    std::vector<const StoredRelation*> stored(m);
    for (size_t u = 0; u < m; ++u) {
      WVM_ASSIGN_OR_RETURN(
          stored[u], FindStored(storage, view.relations()[unbound[u]].name));
    }

    // Recursive blocked loops: level u iterates over windows of unbound[u].
    std::function<Status(size_t)> loop = [&](size_t u) -> Status {
      if (u == m) {
        WVM_ASSIGN_OR_RETURN(Relation part,
                             JoinOperandsPlanned(view, operands));
        result.Add(part);
        return Status::OK();
      }
      const StoredRelation* sr = stored[u];
      const int window = (u == 0) ? outer_window : 1;
      const int num_blocks = sr->NumBlocks();
      for (int b = 0; b < num_blocks; b += window) {
        Relation window_rel(OperandSliceSchema(view, unbound[u]));
        for (int w = b; w < std::min(num_blocks, b + window); ++w) {
          // One read per block loaded into the buffer (free if cached).
          sr->ChargeBlock(w, io, cache);
          for (const Tuple& t : sr->Block(w)) {
            window_rel.Insert(t, 1);
          }
        }
        operands[unbound[u]] = std::move(window_rel);
        WVM_RETURN_IF_ERROR(loop(u + 1));
      }
      // An empty relation contributes nothing; the loops above never ran,
      // and the join result is empty, which is already the case.
      return Status::OK();
    };
    WVM_RETURN_IF_ERROR(loop(0));
  }

  return result.Scaled(term.coefficient());
}

}  // namespace

Result<Relation> EvaluateTermPhysical(const Term& term,
                                      const StorageMap& storage,
                                      const PhysicalConfig& config,
                                      IOStats* io, ReadCache* cache) {
  ++io->terms_evaluated;
  switch (config.scenario) {
    case PhysicalScenario::kIndexedMemory:
      return EvaluateIndexed(term, storage, io, cache);
    case PhysicalScenario::kNestedLoopLimited:
      return EvaluateNestedLoop(term, storage, config, io, cache);
  }
  return Status::Internal("unknown physical scenario");
}

Result<AnswerMessage> EvaluateQueryPhysical(const Query& query,
                                            const StorageMap& storage,
                                            const PhysicalConfig& config,
                                            IOStats* io,
                                            TermCache* term_cache) {
  AnswerMessage answer;
  answer.query_id = query.id();
  answer.update_id = query.update_id();

  ReadCache cache;
  ReadCache* cache_ptr = config.cache_within_query ? &cache : nullptr;
  const std::vector<Term>& terms = query.terms();
  const bool cross_query = term_cache != nullptr && term_cache->enabled();
  const bool shared = cross_query || config.optimize_terms;

  // Without sharing and without a shared read-cache the terms are
  // independent reads over the storage map, so they evaluate concurrently
  // against per-term I/O meters. Merging the meters in term order below
  // reproduces the serial counters and plan log bit-for-bit (the paper
  // charges every term's I/O independently — Section 6.3 assumes no caching
  // across terms). With a shared cache, charging depends on evaluation
  // order, so only the serial order matches the model.
  std::vector<std::optional<Result<Relation>>> parallel;
  std::vector<IOStats> parallel_io;
  if (!shared && terms.size() >= 2 && !config.cache_within_query &&
      ThreadPool::Shared().num_threads() >= 2) {
    parallel.resize(terms.size());
    parallel_io.resize(terms.size());
    for (IOStats& s : parallel_io) {
      s.record_plans = io->record_plans;
    }
    ParallelFor(terms.size(), [&](size_t i) {
      parallel[i] = EvaluateTermPhysical(terms[i], storage, config,
                                         &parallel_io[i], nullptr);
    });
  }

  // Shared evaluation: a term's answer is its normalized core (coefficient
  // +1, bound signs +1) rescaled by the sign product Term::Normalized
  // reports, so V<+t> and V<-t> share one evaluation. The core is looked up
  // by signature in the cross-query term cache or, for the multiple-term
  // optimization of Section 6.3, in a map scoped to this query. A miss is
  // evaluated once and filled in; hits charge no page reads. The answer
  // keeps one entry per term, so per-term delta tags stay intact.
  std::unordered_map<std::string, Relation> query_scoped;
  for (size_t i = 0; i < terms.size(); ++i) {
    const Term& t = terms[i];
    answer.term_delta_tags.push_back(t.delta_update_id());
    if (!parallel.empty()) {
      if (!parallel[i]->ok()) {
        return parallel[i]->status();
      }
      io->Merge(parallel_io[i]);
      answer.per_term.push_back(*std::move(*parallel[i]));
      continue;
    }
    if (!shared) {
      WVM_ASSIGN_OR_RETURN(
          Relation part,
          EvaluateTermPhysical(t, storage, config, io, cache_ptr));
      answer.per_term.push_back(std::move(part));
      continue;
    }
    int sign_product = 0;
    Term normalized = t.Normalized(&sign_product);
    const std::string signature = TermSignature(normalized);
    std::optional<Relation> core;
    if (cross_query) {
      core = term_cache->Lookup(signature, t.view().get(), io);
    } else if (auto it = query_scoped.find(signature);
               it != query_scoped.end()) {
      core = it->second;
    }
    if (!core.has_value()) {
      IOStats fill;
      fill.record_plans = io->record_plans;
      WVM_ASSIGN_OR_RETURN(
          Relation value, EvaluateTermPhysical(normalized, storage, config,
                                               &fill, cache_ptr));
      io->Merge(fill);
      if (cross_query) {
        term_cache->Fill(signature, std::move(normalized), value,
                         fill.page_reads, io);
      } else {
        query_scoped.emplace(signature, value);
      }
      core = std::move(value);
    }
    answer.per_term.push_back(core->Scaled(sign_product));
  }
  return answer;
}

}  // namespace wvm
