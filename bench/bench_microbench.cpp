// Micro-benchmarks of the core data structures: the signed-relation
// algebra and the join machinery every algorithm sits on. Not a paper
// figure — engineering telemetry for the substrate (throughput per
// operation at realistic sizes).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "relational/algebra.h"
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

// A/B twins of the two hot-loop benchmarks above with the compiled-plan
// fast path disabled, so one binary run reports both sides of the
// compiled-vs-interpreted comparison (BENCH_dataplane.json keeps the
// original names for the default — compiled — path).
void BM_ViewEvaluationChainInterpreted(benchmark::State& state) {
  ScopedCompiledPlans scoped(false);
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
BENCHMARK(BM_ViewEvaluationChainInterpreted)->Arg(100)->Arg(1000)->Arg(5000);

void BM_SubstitutedTermEvaluationInterpreted(benchmark::State& state) {
  ScopedCompiledPlans scoped(false);
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
BENCHMARK(BM_SubstitutedTermEvaluationInterpreted)->Arg(1000)->Arg(10000);

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
StoredRelation LoadedR2(int64_t n, Random* rng) {
  StoredRelation sr({"r2", Schema::Ints({"X", "Y"})}, 20);
  if (!sr.AddIndex("X", /*clustered=*/true).ok() ||
      !sr.AddIndex("Y", /*clustered=*/false).ok()) {
    std::abort();
  }
  const int64_t keys = n / 4;
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Tuple::Ints({i % keys, rng->UniformRange(0, keys - 1)}));
  }
  if (!sr.BulkLoad(std::move(rows)).ok()) {
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

}  // namespace
}  // namespace wvm::bench

BENCHMARK_MAIN();
