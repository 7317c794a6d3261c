// Tests for the opt-in source query engine: the cross-query term cache
// with delta patching under updates, and snapshot-isolated parallel
// evaluation of query batches. The engine must never change an answer —
// only the accounting — so most tests here are differential against the
// plain serial no-caching source.
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/eca.h"
#include "core/multi_view.h"
#include "source/source.h"
#include "source/term_cache.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

// Force a multi-worker shared pool before anything touches it, so the
// parallel batch path runs even on single-core machines.
const bool kForceThreads = [] {
  setenv("WVM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct EngineFixture {
  Workload workload;
  Source source;

  static EngineFixture Make(const SourceConfig& config, uint64_t seed = 42) {
    Random rng(seed);
    Result<Workload> w = MakeExample6Workload({100, 4}, &rng);
    EXPECT_TRUE(w.ok());
    Result<Source> source =
        Source::Create(w->initial, config, w->scenario1_indexes);
    EXPECT_TRUE(source.ok()) << source.status();
    return EngineFixture{std::move(*w), std::move(*source)};
  }
};

SourceConfig EngineOn() {
  SourceConfig config;
  config.term_cache.enabled = true;
  return config;
}

Query OneTermQuery(const Workload& w, const Update& u, uint64_t id) {
  auto t = Term::FromView(w.view).Substitute(u);
  EXPECT_TRUE(t.has_value());
  return Query(id, u.id, {*t});
}

void ExpectSameAnswer(const AnswerMessage& a, const AnswerMessage& b,
                      const std::string& label) {
  ASSERT_EQ(a.per_term.size(), b.per_term.size()) << label;
  for (size_t i = 0; i < a.per_term.size(); ++i) {
    EXPECT_EQ(a.per_term[i], b.per_term[i])
        << label << " term " << i << "\n  a: " << a.per_term[i].ToString()
        << "\n  b: " << b.per_term[i].ToString();
  }
}

TEST(SourceEngineTest, RepeatedQueryHitsWithoutPageReads) {
  EngineFixture f = EngineFixture::Make(EngineOn());
  const Update u = Update::Insert("r1", Tuple::Ints({42, 3}));
  Result<AnswerMessage> first = f.source.EvaluateQuery(OneTermQuery(
      f.workload, u, 1));
  ASSERT_TRUE(first.ok());
  const int64_t reads_after_fill = f.source.io_stats().page_reads;
  EXPECT_GT(reads_after_fill, 0);
  EXPECT_EQ(f.source.io_stats().term_cache_misses, 1);

  Result<AnswerMessage> second = f.source.EvaluateQuery(OneTermQuery(
      f.workload, u, 2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(f.source.io_stats().page_reads, reads_after_fill);
  EXPECT_EQ(f.source.io_stats().term_cache_hits, 1);
  ExpectSameAnswer(*first, *second, "hit vs fill");
}

TEST(SourceEngineTest, InsertAndDeleteOfSameTupleShareOneEntry) {
  // V<+t> and V<-t> have the same signature (signs fold out); the delete
  // substitution is a hit whose answer is the insert's negation.
  EngineFixture f = EngineFixture::Make(EngineOn());
  const Tuple t = Tuple::Ints({42, 3});
  Result<AnswerMessage> plus = f.source.EvaluateQuery(
      OneTermQuery(f.workload, Update::Insert("r1", t), 1));
  Result<AnswerMessage> minus = f.source.EvaluateQuery(
      OneTermQuery(f.workload, Update::Delete("r1", t), 2));
  ASSERT_TRUE(plus.ok());
  ASSERT_TRUE(minus.ok());
  EXPECT_EQ(f.source.io_stats().term_cache_hits, 1);
  EXPECT_EQ(f.source.io_stats().term_cache_misses, 1);
  ASSERT_EQ(minus->per_term.size(), 1u);
  EXPECT_EQ(minus->per_term[0], plus->per_term[0].Negated());
}

TEST(SourceEngineTest, CacheSubsumesWithinQueryTermOptimization) {
  // Three structurally identical terms in ONE query: the first fills, the
  // other two hit the just-filled entry — same 5 reads the optimize_terms
  // flag achieves (1 + J for this plan), without the flag.
  EngineFixture f = EngineFixture::Make(EngineOn());
  Term t = *Term::FromView(f.workload.view)
                .Substitute(Update::Insert("r1", Tuple::Ints({42, 3})));
  Term neg = t.Negated();
  ASSERT_TRUE(f.source.EvaluateQuery(Query(1, 3, {t, neg, t})).ok());
  EXPECT_EQ(f.source.io_stats().page_reads, 5);
  EXPECT_EQ(f.source.io_stats().term_cache_hits, 2);
  EXPECT_EQ(f.source.io_stats().term_cache_misses, 1);
}

TEST(SourceEngineTest, UpdatePatchesAffectedEntries) {
  EngineFixture on = EngineFixture::Make(EngineOn());
  EngineFixture off = EngineFixture::Make(SourceConfig());

  // Fill: term bound on r1, unbound r2 and r3.
  const Update bound = Update::Insert("r1", Tuple::Ints({42, 3}));
  ASSERT_TRUE(on.source.EvaluateQuery(OneTermQuery(on.workload, bound, 1))
                  .ok());
  const int64_t reads_after_fill = on.source.io_stats().page_reads;

  // Updates to the unbound relations must patch the entry in place — one
  // joining insert, one joining delete of an existing tuple (X=3 joins the
  // bound tuple's X; {3, 0} exists in the generated r2: X = t % 25,
  // Y = (t/4) % 25, t = 3).
  const std::vector<Update> updates = {
      Update::Insert("r2", Tuple::Ints({3, 7})),
      Update::Delete("r2", Tuple::Ints({3, 0})),
      Update::Insert("r3", Tuple::Ints({7, 1})),
  };
  for (const Update& u : updates) {
    ASSERT_TRUE(on.source.ExecuteUpdate(u).ok()) << u.ToString();
    ASSERT_TRUE(off.source.ExecuteUpdate(u).ok());
  }
  EXPECT_EQ(on.source.io_stats().term_cache_patches, 3);
  EXPECT_EQ(on.source.io_stats().term_cache_evictions, 0);
  EXPECT_GT(on.source.io_stats().term_cache_patch_reads, 0);
  // Patch reads are maintenance I/O, not the paper's query page reads.
  EXPECT_EQ(on.source.io_stats().page_reads, reads_after_fill);

  // The patched entry answers the re-query exactly as a fresh evaluation
  // over the post-update storage does — with zero additional page reads.
  Result<AnswerMessage> cached =
      on.source.EvaluateQuery(OneTermQuery(on.workload, bound, 2));
  Result<AnswerMessage> fresh =
      off.source.EvaluateQuery(OneTermQuery(off.workload, bound, 2));
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(on.source.io_stats().page_reads, reads_after_fill);
  EXPECT_EQ(on.source.io_stats().term_cache_hits, 1);
  ExpectSameAnswer(*cached, *fresh, "patched vs fresh");
}

TEST(SourceEngineTest, UpdateToBoundRelationLeavesEntryIntact) {
  // The term binds r1's position, so its answer does not depend on r1's
  // stored contents: an r1 update neither patches nor evicts.
  EngineFixture f = EngineFixture::Make(EngineOn());
  const Update bound = Update::Insert("r1", Tuple::Ints({42, 3}));
  Result<AnswerMessage> before =
      f.source.EvaluateQuery(OneTermQuery(f.workload, bound, 1));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      f.source.ExecuteUpdate(Update::Insert("r1", Tuple::Ints({9, 3})))
          .ok());
  EXPECT_EQ(f.source.io_stats().term_cache_patches, 0);
  EXPECT_EQ(f.source.io_stats().term_cache_evictions, 0);
  Result<AnswerMessage> after =
      f.source.EvaluateQuery(OneTermQuery(f.workload, bound, 2));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(f.source.io_stats().term_cache_hits, 1);
  ExpectSameAnswer(*before, *after, "bound-relation update");
}

TEST(SourceEngineTest, CostlyPatchesEvictInstead) {
  SourceConfig config = EngineOn();
  config.term_cache.patch_cost_factor = 1e9;  // any patch looks too dear
  EngineFixture on = EngineFixture::Make(config);
  EngineFixture off = EngineFixture::Make(SourceConfig());

  const Update bound = Update::Insert("r1", Tuple::Ints({42, 3}));
  ASSERT_TRUE(on.source.EvaluateQuery(OneTermQuery(on.workload, bound, 1))
                  .ok());
  ASSERT_NE(on.source.term_cache(), nullptr);
  EXPECT_EQ(on.source.term_cache()->size(), 1u);

  const Update u = Update::Insert("r2", Tuple::Ints({3, 7}));
  ASSERT_TRUE(on.source.ExecuteUpdate(u).ok());
  ASSERT_TRUE(off.source.ExecuteUpdate(u).ok());
  EXPECT_EQ(on.source.io_stats().term_cache_patches, 0);
  EXPECT_EQ(on.source.io_stats().term_cache_evictions, 1);
  EXPECT_EQ(on.source.term_cache()->size(), 0u);

  // Re-query misses and recomputes — still the right answer.
  Result<AnswerMessage> recomputed =
      on.source.EvaluateQuery(OneTermQuery(on.workload, bound, 2));
  Result<AnswerMessage> fresh =
      off.source.EvaluateQuery(OneTermQuery(off.workload, bound, 2));
  ASSERT_TRUE(recomputed.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(on.source.io_stats().term_cache_misses, 2);
  ExpectSameAnswer(*recomputed, *fresh, "post-eviction");
}

TEST(SourceEngineTest, LruBoundsCacheSize) {
  SourceConfig config = EngineOn();
  config.term_cache.capacity = 2;
  EngineFixture f = EngineFixture::Make(config);
  for (int64_t w = 0; w < 4; ++w) {
    const Update u = Update::Insert("r1", Tuple::Ints({w, 3}));
    ASSERT_TRUE(
        f.source.EvaluateQuery(OneTermQuery(f.workload, u, w + 1)).ok());
  }
  ASSERT_NE(f.source.term_cache(), nullptr);
  EXPECT_EQ(f.source.term_cache()->size(), 2u);
  EXPECT_EQ(f.source.io_stats().term_cache_evictions, 2);
  EXPECT_EQ(f.source.io_stats().term_cache_misses, 4);
}

// Whole-simulation differential: with the engine on, every algorithm must
// converge to the same warehouse view as the plain source — across churn,
// delete-heavy, and randomized schedules, worst-case and random orders.
TEST(SourceEngineTest, SimulationsConvergeIdenticallyWithEngineOn) {
  for (uint64_t seed : {3u, 11u}) {
    Random rng(seed);
    Result<Workload> w = MakeExample6Workload({60, 4}, &rng);
    ASSERT_TRUE(w.ok());
    std::vector<std::vector<Update>> schedules;
    {
      Result<std::vector<Update>> churn = MakeChurnUpdates(*w, 18, 3, &rng);
      ASSERT_TRUE(churn.ok());
      schedules.push_back(*std::move(churn));
      Result<std::vector<Update>> heavy = MakeMixedUpdates(*w, 18, 0.7, &rng);
      ASSERT_TRUE(heavy.ok());
      schedules.push_back(*std::move(heavy));
    }
    for (size_t s = 0; s < schedules.size(); ++s) {
      for (Algorithm algorithm : {Algorithm::kEca, Algorithm::kLca}) {
        auto run = [&](bool engine) {
          SimulationOptions options;
          options.indexes = w->scenario1_indexes;
          options.term_cache.enabled = engine;
          options.engine.parallel_answers = engine;
          std::unique_ptr<Simulation> sim =
              MustMakeSim(w->initial, w->view, algorithm, options);
          sim->SetUpdateScript(schedules[s]);
          WorstCasePolicy policy;
          EXPECT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
          ConsistencyReport report = CheckConsistency(sim->state_log());
          EXPECT_TRUE(report.convergent)
              << "seed " << seed << " schedule " << s;
          return std::pair<Relation, int64_t>(sim->warehouse_view(),
                                              sim->io_stats().page_reads);
        };
        auto [view_off, io_off] = run(false);
        auto [view_on, io_on] = run(true);
        EXPECT_EQ(view_off, view_on)
            << "seed " << seed << " schedule " << s << " algorithm "
            << AlgorithmName(algorithm);
        EXPECT_LE(io_on, io_off);  // hits can only remove page reads
      }
    }
  }
}

// --- Auxiliary-view promotion (TermCacheConfig::promote) --------------------

// Two structurally identical views owned by different objects, querying the
// same source: the regime where a shared subexpression is hot ACROSS views
// and promotion pays.
struct AuxFixture {
  Catalog initial;
  ViewDefinitionPtr va;
  ViewDefinitionPtr vb;
  Source source;

  static AuxFixture Make(const SourceConfig& config) {
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Relation r1(s1);
    Relation r2(s2);
    for (int64_t t = 0; t < 20; ++t) {
      r1.Insert(Tuple::Ints({t, t % 4}));
      r2.Insert(Tuple::Ints({t % 4, t}));
    }
    Catalog initial;
    EXPECT_TRUE(initial.DefineWithData({"r1", s1}, std::move(r1)).ok());
    EXPECT_TRUE(initial.DefineWithData({"r2", s2}, std::move(r2)).ok());
    ViewDefinitionPtr va =
        *ViewDefinition::NaturalJoin("VA", {{"r1", s1}, {"r2", s2}}, {"W"});
    ViewDefinitionPtr vb =
        *ViewDefinition::NaturalJoin("VB", {{"r1", s1}, {"r2", s2}}, {"W"});
    Result<Source> source = Source::Create(initial, config, {});
    EXPECT_TRUE(source.ok()) << source.status();
    return AuxFixture{std::move(initial), std::move(va), std::move(vb),
                      std::move(*source)};
  }
};

SourceConfig PromoteOn() {
  SourceConfig config;
  config.term_cache.enabled = true;
  config.term_cache.promote = true;
  config.term_cache.promote_min_hits = 3;
  config.term_cache.promote_min_views = 2;
  config.term_cache.demote_after_updates = 3;
  return config;
}

Query ViewTermQuery(const ViewDefinitionPtr& view, const Update& u,
                    uint64_t id) {
  auto t = Term::FromView(view).Substitute(u);
  EXPECT_TRUE(t.has_value());
  return Query(id, u.id, {*t});
}

TEST(AuxViewTest, HotCrossViewTermPromotesIntoAuxCatalog) {
  AuxFixture f = AuxFixture::Make(PromoteOn());
  const Update u = Update::Insert("r1", Tuple::Ints({50, 1}));
  // VA fills; alternating VA/VB hits accumulate cross-view stats. The
  // third hit satisfies hits >= 3 from >= 2 distinct views with zero patch
  // cost, so the entry graduates.
  Result<AnswerMessage> first =
      f.source.EvaluateQuery(ViewTermQuery(f.va, u, 1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.vb, u, 2)).ok());
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.va, u, 3)).ok());
  EXPECT_EQ(f.source.io_stats().term_cache_promotions, 0);
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.vb, u, 4)).ok());
  EXPECT_EQ(f.source.io_stats().term_cache_promotions, 1);
  ASSERT_NE(f.source.term_cache(), nullptr);
  EXPECT_EQ(f.source.term_cache()->promoted_count(), 1u);
  EXPECT_TRUE(f.source.term_cache()->aux_catalog().Get("aux1").ok());

  // Serving from the promoted (pinned) entry is metered as an aux hit and
  // still answers exactly.
  Result<AnswerMessage> served =
      f.source.EvaluateQuery(ViewTermQuery(f.vb, u, 5));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(f.source.io_stats().term_cache_aux_hits, 1);
  ExpectSameAnswer(*served, *first, "aux-served vs fill");
}

TEST(AuxViewTest, PromotedEntriesArePinnedAgainstLruPressure) {
  SourceConfig config = PromoteOn();
  config.term_cache.capacity = 2;
  AuxFixture f = AuxFixture::Make(config);
  const Update hot = Update::Insert("r1", Tuple::Ints({50, 1}));
  uint64_t id = 1;
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.va, hot, id++)).ok());
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.vb, hot, id++)).ok());
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.va, hot, id++)).ok());
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.vb, hot, id++)).ok());
  ASSERT_EQ(f.source.term_cache()->promoted_count(), 1u);
  // Churn far more distinct shapes than the capacity: the LRU evicts among
  // the plain entries only, never the promoted one.
  for (int64_t w = 0; w < 6; ++w) {
    const Update cold = Update::Insert("r1", Tuple::Ints({60 + w, 2}));
    ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.va, cold, id++)).ok());
  }
  EXPECT_EQ(f.source.term_cache()->promoted_count(), 1u);
  EXPECT_EQ(f.source.term_cache()->size(), 3u);  // promoted + 2 LRU slots
  // The hot entry still serves.
  ASSERT_TRUE(f.source.EvaluateQuery(ViewTermQuery(f.vb, hot, id++)).ok());
  EXPECT_GE(f.source.io_stats().term_cache_aux_hits, 1);
}

TEST(AuxViewTest, ColdPromotedEntryDemotesAndUnregisters) {
  AuxFixture f = AuxFixture::Make(PromoteOn());
  AuxFixture plain = AuxFixture::Make(SourceConfig());
  const Update u = Update::Insert("r1", Tuple::Ints({50, 1}));
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(f.source
                    .EvaluateQuery(ViewTermQuery(id % 2 ? f.va : f.vb, u, id))
                    .ok());
  }
  ASSERT_EQ(f.source.term_cache()->promoted_count(), 1u);

  // Patch the promoted view through demote_after_updates = 3 consecutive
  // updates with no intervening hit; the 4th patching update finds it cold
  // and demotes it back to a plain LRU entry, unregistering the aux view.
  for (int64_t i = 0; i < 4; ++i) {
    const Update w = Update::Insert("r2", Tuple::Ints({1, 100 + i}));
    ASSERT_TRUE(f.source.ExecuteUpdate(w).ok());
    ASSERT_TRUE(plain.source.ExecuteUpdate(w).ok());
  }
  EXPECT_EQ(f.source.io_stats().term_cache_demotions, 1);
  EXPECT_EQ(f.source.term_cache()->promoted_count(), 0u);
  EXPECT_FALSE(f.source.term_cache()->aux_catalog().Get("aux1").ok());

  // Through promotion, patched maintenance, and demotion, the answer is
  // still exactly the plain source's.
  Result<AnswerMessage> cached =
      f.source.EvaluateQuery(ViewTermQuery(f.va, u, 9));
  Result<AnswerMessage> fresh =
      plain.source.EvaluateQuery(ViewTermQuery(plain.va, u, 9));
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(fresh.ok());
  ExpectSameAnswer(*cached, *fresh, "post-demotion");
}

TEST(AuxViewTest, PromotedAnswersMatchPlainSourceUnderChurn) {
  // Differential under interleaved updates and cross-view queries: the
  // promoted entry is maintained by compiled delta plans, and every answer
  // must match the no-caching source bit for bit.
  SourceConfig config = PromoteOn();
  config.term_cache.demote_after_updates = 64;  // keep it promoted
  AuxFixture on = AuxFixture::Make(config);
  AuxFixture off = AuxFixture::Make(SourceConfig());
  const Update hot = Update::Insert("r1", Tuple::Ints({50, 1}));
  uint64_t id = 1;
  for (int64_t round = 0; round < 8; ++round) {
    // r2 holds (t%4, t), so the live X=1 tuples are (1, 4i+1); churn those
    // for the first rounds, then recycle this loop's own earlier inserts.
    const int64_t victim = round < 5 ? 4 * round + 1 : 200 + (round - 5);
    const std::vector<Update> updates = {
        Update::Insert("r2", Tuple::Ints({1, 200 + round})),
        Update::Delete("r2", Tuple::Ints({1, victim})),
    };
    for (const Update& w : updates) {
      ASSERT_TRUE(on.source.ExecuteUpdate(w).ok()) << w.ToString();
      ASSERT_TRUE(off.source.ExecuteUpdate(w).ok());
    }
    Result<AnswerMessage> a =
        on.source.EvaluateQuery(ViewTermQuery(round % 2 ? on.va : on.vb, hot,
                                              id));
    Result<AnswerMessage> b = off.source.EvaluateQuery(
        ViewTermQuery(round % 2 ? off.va : off.vb, hot, id));
    ++id;
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameAnswer(*a, *b, "round " + std::to_string(round));
  }
  EXPECT_EQ(on.source.io_stats().term_cache_promotions, 1);
  EXPECT_EQ(on.source.io_stats().term_cache_demotions, 0);
  EXPECT_GT(on.source.io_stats().term_cache_aux_hits, 0);
}

TEST(AuxViewTest, PerEntryPatchAccountingEvictsUnreadEntries) {
  // Satellite of the cost-based selector: patch I/O is charged against the
  // entry that was patched, so an entry that is all maintenance and no
  // reuse is evicted on ITS OWN accrued cost, while an entry whose hits
  // keep resetting its window survives the same update stream.
  EngineFixture f = EngineFixture::Make(EngineOn());
  const Update kept_u = Update::Insert("r1", Tuple::Ints({42, 3}));
  const Update dropped_u = Update::Insert("r1", Tuple::Ints({43, 3}));
  ASSERT_TRUE(
      f.source.EvaluateQuery(OneTermQuery(f.workload, kept_u, 1)).ok());
  ASSERT_TRUE(
      f.source.EvaluateQuery(OneTermQuery(f.workload, dropped_u, 2)).ok());
  ASSERT_EQ(f.source.term_cache()->size(), 2u);
  uint64_t id = 3;
  for (int64_t i = 0; i < 8; ++i) {
    // Joining r2 inserts patch both entries (X = 3 matches both bound
    // tuples); only the kept entry is re-read between updates.
    ASSERT_TRUE(f.source
                    .ExecuteUpdate(Update::Insert("r2",
                                                  Tuple::Ints({3, 100 + i})))
                    .ok());
    ASSERT_TRUE(
        f.source.EvaluateQuery(OneTermQuery(f.workload, kept_u, id++)).ok());
  }
  EXPECT_GE(f.source.io_stats().term_cache_evictions, 1);
  EXPECT_EQ(f.source.term_cache()->size(), 1u);
  // The kept entry is still cached (hit), the dropped one recomputes.
  const int64_t hits_before = f.source.io_stats().term_cache_hits;
  ASSERT_TRUE(
      f.source.EvaluateQuery(OneTermQuery(f.workload, kept_u, id++)).ok());
  EXPECT_EQ(f.source.io_stats().term_cache_hits, hits_before + 1);
  const int64_t misses_before = f.source.io_stats().term_cache_misses;
  ASSERT_TRUE(
      f.source.EvaluateQuery(OneTermQuery(f.workload, dropped_u, id++)).ok());
  EXPECT_EQ(f.source.io_stats().term_cache_misses, misses_before + 1);
}

TEST(AuxViewTest, MultiViewSimulationConvergesWithPromotionOn) {
  // End to end: two structurally identical children querying through one
  // warehouse, churn updates repeating term shapes, promotion enabled at
  // the source. Views stay correct and the shared subexpression promotes.
  Schema s1 = Schema::Ints({"W", "X"});
  Schema s2 = Schema::Ints({"X", "Y"});
  Schema s3 = Schema::Ints({"Y", "Z"});
  Catalog initial;
  Relation r1(s1), r2(s2), r3(s3);
  for (int64_t t = 0; t < 12; ++t) {
    r1.Insert(Tuple::Ints({t, t % 3}));
    r2.Insert(Tuple::Ints({t % 3, t}));
    r3.Insert(Tuple::Ints({t, t % 3}));
  }
  ASSERT_TRUE(initial.DefineWithData({"r1", s1}, std::move(r1)).ok());
  ASSERT_TRUE(initial.DefineWithData({"r2", s2}, std::move(r2)).ok());
  ASSERT_TRUE(initial.DefineWithData({"r3", s3}, std::move(r3)).ok());
  ViewDefinitionPtr va =
      *ViewDefinition::NaturalJoin("VA", {{"r1", s1}, {"r2", s2}}, {"W"});
  ViewDefinitionPtr vb =
      *ViewDefinition::NaturalJoin("VB", {{"r1", s1}, {"r2", s2}}, {"W"});

  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(va));
  children.push_back(std::make_unique<Eca>(vb));
  auto multi_owner =
      std::make_unique<MultiViewWarehouse>(std::move(children));
  MultiViewWarehouse* multi = multi_owner.get();
  SimulationOptions options;
  options.term_cache = PromoteOn().term_cache;
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      initial, va, std::move(multi_owner), options);
  ASSERT_TRUE(sim.ok()) << sim.status();
  // Churn a hot r1 tuple so both children keep asking for the same shape.
  std::vector<Update> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back(i % 2 == 0 ? Update::Insert("r1", Tuple::Ints({50, 1}))
                                : Update::Delete("r1", Tuple::Ints({50, 1})));
  }
  (*sim)->SetUpdateScript(script);
  RandomPolicy policy(23);
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  Result<Relation> expected = EvaluateView(va, (*sim)->source_catalog());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(multi->child(0).view_contents(), *expected);
  EXPECT_EQ(multi->child(1).view_contents(), *expected);
  EXPECT_GT((*sim)->io_stats().term_cache_promotions, 0);
}

TEST(SourceEngineThreadedTest, ParallelBatchMatchesSerialMetersExactly) {
  ASSERT_TRUE(kForceThreads);
  ASSERT_GE(ThreadPool::Shared().num_threads(), 2u);
  SourceConfig parallel_config;
  parallel_config.parallel_batch = true;
  EngineFixture parallel = EngineFixture::Make(parallel_config);
  EngineFixture serial = EngineFixture::Make(SourceConfig());

  std::vector<Query> queries;
  for (int64_t i = 0; i < 6; ++i) {
    // Multi-term compensating-style queries over all three relations,
    // including delete-substituted (negative-sign) terms.
    Term a = *Term::FromView(parallel.workload.view)
                  .Substitute(Update::Insert("r1", Tuple::Ints({i, 3})));
    Term b = *Term::FromView(parallel.workload.view)
                  .Substitute(Update::Delete("r2", Tuple::Ints({3, i})));
    b.set_coefficient(-1);
    Term c = *Term::FromView(parallel.workload.view)
                  .Substitute(Update::Insert("r3", Tuple::Ints({i, 9})));
    queries.push_back(Query(i + 1, 1, {a, b, c}));
  }

  Result<std::vector<AnswerMessage>> fanned =
      parallel.source.EvaluateQueryBatch(queries);
  ASSERT_TRUE(fanned.ok()) << fanned.status();
  std::vector<AnswerMessage> reference;
  for (const Query& q : queries) {
    Result<AnswerMessage> a = serial.source.EvaluateQuery(q);
    ASSERT_TRUE(a.ok());
    reference.push_back(*std::move(a));
  }

  ASSERT_EQ(fanned->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ExpectSameAnswer((*fanned)[i], reference[i],
                     "query " + std::to_string(i));
  }
  // With the term cache off, per-query meters merged in query order must
  // reproduce the serial counters bit-for-bit.
  EXPECT_EQ(parallel.source.io_stats().page_reads,
            serial.source.io_stats().page_reads);
  EXPECT_EQ(parallel.source.io_stats().index_probes,
            serial.source.io_stats().index_probes);
  EXPECT_EQ(parallel.source.io_stats().full_scans,
            serial.source.io_stats().full_scans);
  EXPECT_EQ(parallel.source.io_stats().terms_evaluated,
            serial.source.io_stats().terms_evaluated);
}

TEST(SourceEngineThreadedTest, ParallelBatchWithCacheMatchesSerialAnswers) {
  ASSERT_TRUE(kForceThreads);
  SourceConfig engine = EngineOn();
  engine.parallel_batch = true;
  EngineFixture on = EngineFixture::Make(engine);
  EngineFixture off = EngineFixture::Make(SourceConfig());

  // Repeated shapes across the batch: racing fills must agree, and answers
  // must match the plain source regardless of hit/miss attribution.
  std::vector<Query> queries;
  for (int64_t i = 0; i < 8; ++i) {
    Term a = *Term::FromView(on.workload.view)
                  .Substitute(Update::Insert("r1", Tuple::Ints({i % 3, 3})));
    Term b = *Term::FromView(on.workload.view)
                  .Substitute(Update::Delete("r1", Tuple::Ints({i % 3, 3})));
    queries.push_back(Query(i + 1, 1, {a, b}));
  }
  Result<std::vector<AnswerMessage>> fanned =
      on.source.EvaluateQueryBatch(queries);
  ASSERT_TRUE(fanned.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<AnswerMessage> expected = off.source.EvaluateQuery(queries[i]);
    ASSERT_TRUE(expected.ok());
    ExpectSameAnswer((*fanned)[i], *expected, "query " + std::to_string(i));
  }
  // Whatever the schedule, every term either hit or missed.
  EXPECT_EQ(on.source.io_stats().term_cache_hits +
                on.source.io_stats().term_cache_misses,
            static_cast<int64_t>(queries.size() * 2));
}

TEST(SourceEngineThreadedTest, SnapshotsAreIsolatedFromConcurrentUpdates) {
  ASSERT_TRUE(kForceThreads);
  EngineFixture f = EngineFixture::Make(SourceConfig());
  const StorageMap snapshot = f.source.SnapshotStorage();
  std::vector<size_t> baseline;
  for (const auto& [name, sr] : snapshot) {
    baseline.push_back(sr.NumRows());
  }

  // Readers scan and probe the snapshot while the main thread executes
  // updates against the head storage (the batch evaluator's exact access
  // pattern; TSan must see no race).
  std::atomic<bool> stop{false};
  std::atomic<int64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&snapshot, &stop, &scans] {
      // do-while: even if the writer finishes before this thread is first
      // scheduled, every reader still completes at least one full pass.
      do {
        for (const auto& [name, sr] : snapshot) {
          IOStats io;
          (void)sr.FullScan(&io);
          (void)sr.EstimatedMatchesPerKey("X");
        }
        scans.fetch_add(1);
      } while (!stop.load());
    });
  }
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        f.source.ExecuteUpdate(Update::Insert("r1", Tuple::Ints({i, 3})))
            .ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(
          f.source.ExecuteUpdate(Update::Delete("r1", Tuple::Ints({i, 3})))
              .ok());
    }
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_GE(scans.load(), 3);

  // The snapshot never moved; the head did.
  size_t i = 0;
  for (const auto& [name, sr] : snapshot) {
    EXPECT_EQ(sr.NumRows(), baseline[i++]) << name;
  }
  EXPECT_EQ(f.source.storage().at("r1").NumRows(), baseline[0] + 100);
}

}  // namespace
}  // namespace wvm
