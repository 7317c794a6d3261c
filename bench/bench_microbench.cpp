// Micro-benchmarks of the core data structures: the signed-relation
// algebra and the join machinery every algorithm sits on. Not a paper
// figure — engineering telemetry for the substrate (throughput per
// operation at realistic sizes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "relational/algebra.h"
#include "source/physical_evaluator.h"
#include "source/source.h"
#include "storage/stored_relation.h"
#include "workload/generator.h"

namespace wvm::bench {
namespace {

Relation RandomRelation(int64_t rows, int64_t domain, uint64_t seed) {
  Random rng(seed);
  Relation r(Schema::Ints({"a", "b"}));
  for (int64_t i = 0; i < rows; ++i) {
    r.Insert(Tuple::Ints({rng.UniformRange(0, domain - 1),
                          rng.UniformRange(0, domain - 1)}));
  }
  return r;
}

void BM_RelationInsert(benchmark::State& state) {
  Random rng(1);
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Relation r(Schema::Ints({"a", "b"}));
    for (int64_t i = 0; i < n; ++i) {
      r.Insert(Tuple::Ints({i % 97, i}));
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RelationInsert)->Arg(1000)->Arg(10000);

void BM_RelationAdd(benchmark::State& state) {
  Relation a = RandomRelation(state.range(0), 64, 1);
  Relation b = RandomRelation(state.range(0), 64, 2);
  for (auto _ : state) {
    Relation sum = a + b;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationAdd)->Arg(1000)->Arg(10000);

void BM_NaturalJoin(benchmark::State& state) {
  // r1(W,X) |x| r2(X,Y), join factor ~rows/domain.
  Random rng(3);
  const int64_t rows = state.range(0);
  const int64_t domain = rows / 4;
  Relation r1(Schema::Ints({"W", "X"}));
  Relation r2(Schema::Ints({"X", "Y"}));
  for (int64_t i = 0; i < rows; ++i) {
    r1.Insert(Tuple::Ints({i, rng.UniformRange(0, domain - 1)}));
    r2.Insert(Tuple::Ints({rng.UniformRange(0, domain - 1), i}));
  }
  for (auto _ : state) {
    Result<Relation> joined = NaturalJoin(r1, r2);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_NaturalJoin)->Arg(1000)->Arg(5000);

void BM_ViewEvaluationChain(benchmark::State& state) {
  Random rng(4);
  Result<Workload> w = MakeExample6Workload(
      {/*cardinality=*/state.range(0), /*join_factor=*/4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Relation> v = EvaluateView(w->view, w->initial);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViewEvaluationChain)->Arg(100)->Arg(1000)->Arg(5000);

void BM_SubstitutedTermEvaluation(benchmark::State& state) {
  Random rng(5);
  Result<Workload> w = MakeExample6Workload({state.range(0), 4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  Term t = *Term::FromView(w->view).Substitute(
      Update::Insert("r1", Tuple::Ints({7, 3})));
  for (auto _ : state) {
    Result<Relation> r = EvaluateTerm(t, w->initial);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SubstitutedTermEvaluation)->Arg(1000)->Arg(10000);

// One Scenario 1 term through the source's physical evaluator: Example 6 at
// C rows per relation (J = 4, K = 20) on the paper's Scenario 1 indexes.
// The second argument is the number of bound operands: 1 cycles through
// the single-bound terms V<u> of 300 round-robin inserts, 2 through the
// doubly-bound compensation terms V<u_i><u_i+1> of consecutive ones (which
// bind different relations). One term per iteration; page_reads is the
// mean charged per term.
void BM_Scenario1Term(benchmark::State& state) {
  Random rng(8);
  Result<Workload> w = MakeExample6Workload({state.range(0), 4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  PhysicalConfig config;
  config.tuples_per_block = 20;
  Result<Source> source =
      Source::Create(w->initial, config, w->scenario1_indexes);
  Result<std::vector<Update>> updates = MakeRoundRobinInserts(*w, 300, &rng);
  if (!source.ok() || !updates.ok()) {
    state.SkipWithError("Scenario 1 set-up failed");
    return;
  }
  const Term full = Term::FromView(w->view);
  std::vector<Term> terms;
  for (size_t i = 0; i < updates->size(); ++i) {
    std::optional<Term> t = full.Substitute((*updates)[i]);
    if (t.has_value() && state.range(1) == 2) {
      t = t->Substitute((*updates)[(i + 1) % updates->size()]);
    }
    if (!t.has_value()) {
      state.SkipWithError("substitution failed");
      return;
    }
    terms.push_back(*std::move(t));
  }
  IOStats io;
  size_t next = 0;
  for (auto _ : state) {
    Result<Relation> r = EvaluateTermPhysical(terms[next], source->storage(),
                                              source->config(), &io);
    benchmark::DoNotOptimize(r);
    next = next + 1 == terms.size() ? 0 : next + 1;
  }
  state.counters["page_reads"] =
      static_cast<double>(io.page_reads) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_Scenario1Term)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({10000, 1})
    ->Args({10000, 2});

// One-time compilation cost per (view, bound-mask) shape — the price paid
// at view registration, amortized over every later delta evaluation.
void BM_CompiledPlanCompile(benchmark::State& state) {
  Random rng(6);
  Result<Workload> w = MakeExample6Workload({100, 4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  uint64_t mask = 0;
  for (auto _ : state) {
    Result<CompiledDeltaPlan> plan =
        CompiledDeltaPlan::Compile(*w->view, mask % 4);
    benchmark::DoNotOptimize(plan);
    ++mask;
  }
}
BENCHMARK(BM_CompiledPlanCompile);

// The source's stored relations at Example 6's r2 layout: clustered on X,
// a non-clustered index on Y, K = 20 tuples per block, 4 rows per key on
// both attributes, Y scattered across the file. The three benchmarks below
// time one access each — a probe through either index, a delete, an
// insert — against n rows, so their growth in n is the access path's.
std::vector<Tuple> R2Rows(int64_t n, Random* rng) {
  const int64_t keys = n / 4;
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Tuple::Ints({i % keys, rng->UniformRange(0, keys - 1)}));
  }
  return rows;
}

StoredRelation LoadedR2(int64_t n, Random* rng) {
  StoredRelation sr({"r2", Schema::Ints({"X", "Y"})}, 20);
  if (!sr.AddIndex("X", /*clustered=*/true).ok() ||
      !sr.AddIndex("Y", /*clustered=*/false).ok() ||
      !sr.BulkLoad(R2Rows(n, rng)).ok()) {
    std::abort();
  }
  return sr;
}

// One clustered probe of X and one non-clustered probe of Y per iteration.
void BM_StoredIndexProbe(benchmark::State& state) {
  Random rng(7);
  const StoredRelation sr = LoadedR2(state.range(0), &rng);
  const int64_t keys = state.range(0) / 4;
  IOStats io;
  for (auto _ : state) {
    Result<std::vector<Tuple>> x =
        sr.IndexProbe("X", Value(rng.UniformRange(0, keys - 1)), &io);
    Result<std::vector<Tuple>> y =
        sr.IndexProbe("Y", Value(rng.UniformRange(0, keys - 1)), &io);
    benchmark::DoNotOptimize(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_StoredIndexProbe)->Arg(1000)->Arg(10000)->Arg(100000);

// Times `op` on a random row of the file; `undo` restores n rows untimed.
template <typename Op, typename Undo>
void TimeRowChange(benchmark::State& state, Op op, Undo undo) {
  Random rng(8);
  StoredRelation sr = LoadedR2(state.range(0), &rng);
  for (auto _ : state) {
    const Tuple row = sr.rows()[rng.Uniform(sr.NumRows())];
    const auto start = std::chrono::steady_clock::now();
    const Status s = op(sr, row);
    const auto stop = std::chrono::steady_clock::now();
    if (!s.ok() || !undo(sr, row).ok()) {
      state.SkipWithError("row change failed");
      return;
    }
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
}

void BM_StoredDelete(benchmark::State& state) {
  TimeRowChange(
      state, [](StoredRelation& sr, const Tuple& t) { return sr.Delete(t); },
      [](StoredRelation& sr, const Tuple& t) { return sr.Insert(t); });
}
BENCHMARK(BM_StoredDelete)->Arg(1000)->Arg(10000)->Arg(100000)->UseManualTime();

void BM_StoredInsert(benchmark::State& state) {
  TimeRowChange(
      state, [](StoredRelation& sr, const Tuple& t) { return sr.Insert(t); },
      [](StoredRelation& sr, const Tuple& t) { return sr.Delete(t); });
}
BENCHMARK(BM_StoredInsert)->Arg(1000)->Arg(10000)->Arg(100000)->UseManualTime();

// Copy-on-write after a checkpoint. A checkpoint shares each relation's and
// stored file's storage with its snapshot; the next write unshares it by
// cloning every row, and the next checkpoint drops the snapshot's orphaned
// copy. One iteration is one such cycle over n rows of Example 6's r2
// layout: share, write once, drop the old copy. Real time is the whole
// cycle; the counters split it into the write (clone_us, clone included)
// and the drop (free_us).
template <typename Storage, typename Write>
void TimeWriteAfterShare(benchmark::State& state, Storage head, Write write) {
  double clone_s = 0;
  double free_s = 0;
  bool insert = false;
  for (auto _ : state) {
    auto snapshot = std::make_unique<Storage>(head);
    const auto start = std::chrono::steady_clock::now();
    const Status s = write(head, insert);
    const auto written = std::chrono::steady_clock::now();
    snapshot.reset();
    const auto dropped = std::chrono::steady_clock::now();
    if (!s.ok()) {
      state.SkipWithError("write failed");
      return;
    }
    insert = !insert;
    clone_s += std::chrono::duration<double>(written - start).count();
    free_s += std::chrono::duration<double>(dropped - written).count();
  }
  state.counters["clone_us"] =
      benchmark::Counter(clone_s * 1e6, benchmark::Counter::kAvgIterations);
  state.counters["free_us"] =
      benchmark::Counter(free_s * 1e6, benchmark::Counter::kAvgIterations);
}

// The tuples alone: n handles copied, one overwritten, the old n dropped.
void BM_TupleCopy(benchmark::State& state) {
  Random rng(9);
  std::vector<Tuple> rows = R2Rows(state.range(0), &rng);
  const Tuple fresh = Tuple::Ints({-1, -1});
  for (auto _ : state) {
    std::vector<Tuple> copy = rows;
    copy[rng.Uniform(copy.size())] = fresh;
    rows.swap(copy);  // `copy` now holds the old rows and drops them
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TupleCopy)->Arg(1000)->Arg(10000)->Arg(100000);

// A Relation's counts map: the write inserts or removes one absent row.
void BM_RelationWriteAfterShare(benchmark::State& state) {
  Random rng(10);
  Relation head(Schema::Ints({"X", "Y"}));
  for (Tuple& t : R2Rows(state.range(0), &rng)) {
    head.Insert(std::move(t));
  }
  const Tuple fresh = Tuple::Ints({-1, -1});
  TimeWriteAfterShare(state, std::move(head),
                      [&fresh](Relation& r, bool insert) {
                        r.Insert(fresh, insert ? 1 : -1);
                        return Status::OK();
                      });
}
BENCHMARK(BM_RelationWriteAfterShare)->Arg(1000)->Arg(10000)->Arg(100000);

// A stored file with both indexes: the write deletes, then re-inserts, one
// row.
void BM_StoredWriteAfterShare(benchmark::State& state) {
  Random rng(11);
  StoredRelation head = LoadedR2(state.range(0), &rng);
  const Tuple row = head.rows()[rng.Uniform(head.NumRows())];
  TimeWriteAfterShare(state, std::move(head),
                      [&row](StoredRelation& sr, bool insert) {
                        return insert ? sr.Insert(row) : sr.Delete(row);
                      });
}
BENCHMARK(BM_StoredWriteAfterShare)->Arg(1000)->Arg(10000)->Arg(100000);

// The fk-star `orders` layout: a unique order key O with no index, and the
// referenced part P, four orders per part, clustered. The write deletes,
// then re-inserts, one row.
void BM_StoredWriteAfterShareUnindexedKey(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t o = 0; o < n; ++o) {
    rows.push_back(Tuple::Ints({o, o % (n / 4)}));
  }
  StoredRelation head({"orders", Schema::Ints({"O", "P"})}, 20);
  if (!head.AddIndex("P", /*clustered=*/true).ok() ||
      !head.BulkLoad(std::move(rows)).ok()) {
    std::abort();
  }
  Random rng(12);
  const Tuple row = head.rows()[rng.Uniform(head.NumRows())];
  TimeWriteAfterShare(state, std::move(head),
                      [&row](StoredRelation& sr, bool insert) {
                        return insert ? sr.Insert(row) : sr.Delete(row);
                      });
}
BENCHMARK(BM_StoredWriteAfterShareUnindexedKey)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

}  // namespace
}  // namespace wvm::bench

BENCHMARK_MAIN();
