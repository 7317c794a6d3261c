#include "source/physical_evaluator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "relational/algebra.h"
#include "source/term_cache.h"

namespace wvm {

namespace {

// Working set during Scenario 1 probe expansion: rows over an arbitrary
// subset of combined-schema columns, tracked by `cols`.
struct Frontier {
  std::vector<size_t> cols;  // combined-schema column ids, in row order
  std::vector<std::pair<Tuple, int64_t>> rows;

  std::optional<size_t> PositionOf(size_t combined_col) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == combined_col) {
        return i;
      }
    }
    return std::nullopt;
  }
};

// An equi-edge usable to join the frontier with relation position `p`:
// frontier column -> attribute column within p's base schema.
struct JoinLink {
  size_t frontier_col = 0;   // index into Frontier::cols/row values
  size_t relation_attr = 0;  // column within the relation's own schema
};

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

// All equi-edges connecting current frontier columns to columns of
// relation position `p`.
std::vector<JoinLink> LinksTo(const ViewDefinition& view, const Frontier& f,
                              size_t p) {
  const size_t offset = view.relation_offset(p);
  const size_t arity = view.relations()[p].schema.size();
  std::vector<JoinLink> links;
  for (const ViewDefinition::EquiEdge& e : view.equi_edges()) {
    for (const auto& [a, b] : {std::pair<size_t, size_t>{e.left_column,
                                                         e.right_column},
                               std::pair<size_t, size_t>{e.right_column,
                                                         e.left_column}}) {
      if (b >= offset && b < offset + arity) {
        std::optional<size_t> fcol = f.PositionOf(a);
        if (fcol.has_value()) {
          links.push_back(JoinLink{*fcol, b - offset});
        }
      }
    }
  }
  return links;
}

// Assembles the frontier (which must cover every combined column) into a
// relation in combined-schema order, then filters and projects.
Result<Relation> FinishFrontier(const ViewDefinition& view, const Frontier& f,
                                int coefficient) {
  const size_t width = view.combined_schema().size();
  std::vector<size_t> where(width, SIZE_MAX);
  for (size_t i = 0; i < f.cols.size(); ++i) {
    where[f.cols[i]] = i;
  }
  for (size_t c = 0; c < width; ++c) {
    if (where[c] == SIZE_MAX) {
      return Status::Internal(
          StrCat("frontier missing combined column ", c));
    }
  }
  Relation assembled(view.combined_schema());
  assembled.Reserve(f.rows.size());
  for (const auto& [row, count] : f.rows) {
    assembled.Insert(row.Project(where), count);
  }
  // The full condition (not just the residual) is applied here: bound
  // operands are seeded into the frontier by plain concatenation, so a
  // spanning equi-edge between two bound tuples is enforced only by this
  // filter. Seeding with links instead would skip the index probes the
  // paper's cost model charges for dead compensation terms (Section 6.3).
  Relation filtered = SelectBound(assembled, view.bound_cond());
  Relation projected = ProjectIndices(filtered, view.projection_indices());
  return projected.Scaled(coefficient);
}

// Appends relation position p's columns to the frontier by joining `tuples`
// of that relation against it with an in-memory hash join on `links` (cross
// product if none).
void JoinInMemory(Frontier* f, const std::vector<Tuple>& tuples,
                  const std::vector<JoinLink>& links, size_t offset,
                  size_t arity) {
  std::vector<std::pair<Tuple, int64_t>> out_rows;
  if (links.empty()) {
    for (const auto& [row, count] : f->rows) {
      for (const Tuple& t : tuples) {
        out_rows.emplace_back(row.Concat(t), count);
      }
    }
  } else {
    std::vector<size_t> rel_cols;
    std::vector<size_t> frontier_cols;
    for (const JoinLink& l : links) {
      rel_cols.push_back(l.relation_attr);
      frontier_cols.push_back(l.frontier_col);
    }
    std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>
        by_key;
    by_key.reserve(tuples.size());
    for (const Tuple& t : tuples) {
      by_key[t.Project(rel_cols)].push_back(&t);
    }
    for (const auto& [row, count] : f->rows) {
      auto it = by_key.find(TupleKeyView(row, frontier_cols));
      if (it == by_key.end()) {
        continue;
      }
      for (const Tuple* t : it->second) {
        out_rows.emplace_back(row.Concat(*t), count);
      }
    }
  }
  f->rows = std::move(out_rows);
  for (size_t a = 0; a < arity; ++a) {
    f->cols.push_back(offset + a);
  }
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

  // Seed the frontier with the cross product of the bound tuples (each a
  // memory-resident singleton shipped with the query). Deliberately no join
  // links here: a doubly-bound compensation term whose tuples disagree on a
  // join attribute still runs its probes — the paper's cost model charges
  // them — and dies in FinishFrontier's filter instead.
  Frontier frontier;
  frontier.rows.emplace_back(Tuple(), 1);
  std::vector<bool> done(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (!term.operands()[i].is_bound) {
      continue;
    }
    const SignedTuple& st = term.operands()[i].bound;
    std::vector<Tuple> single = {st.tuple};
    JoinInMemory(&frontier, single, {}, view.relation_offset(i),
                 view.relations()[i].schema.size());
    for (auto& [row, count] : frontier.rows) {
      count *= st.sign;
    }
    done[i] = true;
  }

  // Expand one relation at a time, choosing the cheapest access path.
  for (size_t expanded = term.NumBound(); expanded < n; ++expanded) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double best_cost = kInf;
    size_t best_p = 0;
    bool best_is_probe = false;  // else a full scan
    JoinLink best_link;
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
      // Index probes along available links.
      for (const JoinLink& link : LinksTo(view, frontier, p)) {
        const std::string& attr =
            view.relations()[p].schema.attribute(link.relation_attr).name;
        const IndexDef* idx = sr->FindIndex(attr);
        if (idx == nullptr) {
          continue;
        }
        const double matches = sr->EstimatedMatchesPerKey(attr);
        const double per_probe =
            idx->clustered
                ? std::max(1.0, std::ceil(matches / sr->tuples_per_block()))
                : matches;
        const double cost =
            static_cast<double>(frontier.rows.size()) * per_probe;
        if (cost < best_cost) {
          best_cost = cost;
          best_p = p;
          best_is_probe = true;
          best_link = link;
          best_attr = attr;
        }
      }
    }

    WVM_ASSIGN_OR_RETURN(const StoredRelation* sr,
                         FindStored(storage, view.relations()[best_p].name));
    const size_t offset = view.relation_offset(best_p);
    const size_t arity = view.relations()[best_p].schema.size();
    std::vector<JoinLink> all_links = LinksTo(view, frontier, best_p);

    if (best_is_probe) {
      io->LogPlan(StrCat("probe ", view.relations()[best_p].name, ".",
                         best_attr,
                         sr->FindIndex(best_attr)->clustered
                             ? " (clustered index)"
                             : " (non-clustered index)",
                         " from ", frontier.rows.size(), " frontier rows"));
      // Probe once per DISTINCT join value in the frontier: when the probe
      // value comes straight from a bound tuple all frontier rows share it
      // and the paper charges a single probe (e.g. IO2 = 2 for Q2), while
      // generically distinct values charge one probe each (IO1 = 1 + J for
      // Q1). No caching across expansion steps or terms.
      std::unordered_map<Tuple, std::vector<Tuple>, TupleHash, TupleEq> probed;
      const std::vector<size_t> probe_col = {best_link.frontier_col};
      std::vector<std::pair<Tuple, int64_t>> out_rows;
      for (const auto& [row, count] : frontier.rows) {
        auto it = probed.find(TupleKeyView(row, probe_col));
        if (it == probed.end()) {
          Tuple key = row.Project(probe_col);
          WVM_ASSIGN_OR_RETURN(
              std::vector<Tuple> matches,
              sr->IndexProbe(best_attr, key.value(0), io, cache));
          it = probed.emplace(std::move(key), std::move(matches)).first;
        }
        for (const Tuple& t : it->second) {
          bool keep = true;
          for (const JoinLink& l : all_links) {
            if (!(row.value(l.frontier_col) == t.value(l.relation_attr))) {
              keep = false;
              break;
            }
          }
          if (keep) {
            out_rows.emplace_back(row.Concat(t), count);
          }
        }
      }
      frontier.rows = std::move(out_rows);
      for (size_t a = 0; a < arity; ++a) {
        frontier.cols.push_back(offset + a);
      }
    } else {
      io->LogPlan(StrCat("scan ", view.relations()[best_p].name, " (",
                         sr->NumBlocks(), " blocks), hash join"));
      JoinInMemory(&frontier, sr->FullScan(io, cache), all_links, offset,
                   arity);
    }
    done[best_p] = true;
  }

  return FinishFrontier(view, frontier, term.coefficient());
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

  if (term_cache != nullptr && term_cache->enabled()) {
    // Cross-query term cache. Serial per query (batch-level parallelism
    // lives in Source::EvaluateQueryBatch); subsumes optimize_terms, since
    // a repeated shape within this query hits the entry the first
    // occurrence just filled. Hits charge no page reads; misses charge the
    // normalized evaluation exactly as the serial path would.
    for (const Term& t : query.terms()) {
      int sign_product = 0;
      Term normalized = t.Normalized(&sign_product);
      const std::string signature = TermSignature(normalized);
      std::optional<Relation> core =
          term_cache->Lookup(signature, t.view().get(), io);
      if (!core.has_value()) {
        IOStats fill;
        fill.record_plans = io->record_plans;
        WVM_ASSIGN_OR_RETURN(
            Relation value, EvaluateTermPhysical(normalized, storage, config,
                                                 &fill, cache_ptr));
        io->Merge(fill);
        term_cache->Fill(signature, std::move(normalized), value,
                         fill.page_reads, io);
        core = std::move(value);
      }
      answer.term_delta_tags.push_back(t.delta_update_id());
      answer.per_term.push_back(core->Scaled(sign_product));
    }
    return answer;
  }

  if (!config.optimize_terms) {
    const std::vector<Term>& terms = query.terms();
    if (terms.size() >= 2 && !config.cache_within_query &&
        ThreadPool::Shared().num_threads() >= 2) {
      // Without a shared read-cache the terms are independent reads over
      // the storage map, so they evaluate concurrently against per-term
      // I/O meters. Merging the meters in term order reproduces the serial
      // counters and plan log bit-for-bit (the paper charges every term's
      // I/O independently — Section 6.3 assumes no caching across terms).
      // With a shared cache, charging depends on evaluation order, so the
      // serial path below is the only one that matches the model.
      std::vector<std::optional<Result<Relation>>> parts(terms.size());
      std::vector<IOStats> term_io(terms.size());
      for (IOStats& s : term_io) {
        s.record_plans = io->record_plans;
      }
      ParallelFor(terms.size(), [&](size_t i) {
        parts[i] = EvaluateTermPhysical(terms[i], storage, config,
                                        &term_io[i], nullptr);
      });
      for (size_t i = 0; i < terms.size(); ++i) {
        if (!parts[i]->ok()) {
          return parts[i]->status();
        }
        io->Merge(term_io[i]);
        answer.term_delta_tags.push_back(terms[i].delta_update_id());
        answer.per_term.push_back(*std::move(*parts[i]));
      }
      return answer;
    }
    for (const Term& t : terms) {
      WVM_ASSIGN_OR_RETURN(
          Relation part,
          EvaluateTermPhysical(t, storage, config, io, cache_ptr));
      answer.term_delta_tags.push_back(t.delta_update_id());
      answer.per_term.push_back(std::move(part));
    }
    return answer;
  }

  // Multiple-term optimization (Section 6.3): evaluate each structural
  // shape once in normalized form (coefficient +1, bound signs +1), then
  // rescale per original term. Keying on the sign-folded TermSignature lets
  // V<+t> and V<-t> share one evaluation — their answers differ only by the
  // sign product Term::Normalized reports. The answer keeps one entry per
  // term, so per-term delta tags stay intact.
  std::map<std::string, Relation> by_shape;
  for (const Term& t : query.terms()) {
    int sign_product = 0;
    Term base = t.Normalized(&sign_product);
    const std::string key = TermSignature(base);
    auto it = by_shape.find(key);
    if (it == by_shape.end()) {
      WVM_ASSIGN_OR_RETURN(
          Relation value,
          EvaluateTermPhysical(base, storage, config, io, cache_ptr));
      it = by_shape.emplace(key, std::move(value)).first;
    }
    answer.term_delta_tags.push_back(t.delta_update_id());
    answer.per_term.push_back(it->second.Scaled(sign_product));
  }
  return answer;
}

}  // namespace wvm
