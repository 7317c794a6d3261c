// Tests for the multi-view warehouse (Section 7: "ECA is simply applied to
// each view separately"), the deferred/periodic timing wrapper (Section 2),
// and modifications as atomic delete+insert batches (Section 4.1).
#include <gtest/gtest.h>

#include "core/deferred.h"
#include "core/eca.h"
#include "core/eca_batch.h"
#include "core/multi_view.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

// Two views over the same three base relations: V1 = pi_W(r1|x|r2),
// V2 = pi_{Y,Z}(r2|x|r3).
struct TwoViewFixture {
  Catalog initial;
  ViewDefinitionPtr v1;
  ViewDefinitionPtr v2;

  static TwoViewFixture Make() {
    TwoViewFixture f;
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Schema s3 = Schema::Ints({"Y", "Z"});
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r1", s1},
                                    Relation::FromTuples(
                                        s1, {Tuple::Ints({1, 2})}))
                    .ok());
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r2", s2},
                                    Relation::FromTuples(
                                        s2, {Tuple::Ints({2, 3})}))
                    .ok());
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r3", s3},
                                    Relation::FromTuples(
                                        s3, {Tuple::Ints({3, 4})}))
                    .ok());
    f.v1 = *ViewDefinition::NaturalJoin("V1", {{"r1", s1}, {"r2", s2}},
                                        {"W"});
    f.v2 = *ViewDefinition::NaturalJoin("V2", {{"r2", s2}, {"r3", s3}},
                                        {"Y", "Z"});
    return f;
  }
};

std::unique_ptr<Simulation> MakeMultiSim(const TwoViewFixture& f,
                                         MultiViewWarehouse** out,
                                         bool dedup = false) {
  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(f.v1));
  children.push_back(std::make_unique<Eca>(f.v2));
  MultiViewOptions mv_options;
  mv_options.dedup = dedup;
  auto multi = std::make_unique<MultiViewWarehouse>(std::move(children),
                                                    mv_options);
  *out = multi.get();
  SimulationOptions options;
  Result<std::unique_ptr<Simulation>> sim =
      Simulation::Create(f.initial, f.v1, std::move(multi), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return std::move(*sim);
}

TEST(MultiViewTest, BothViewsMaintainedThroughOneChannel) {
  TwoViewFixture f = TwoViewFixture::Make();
  MultiViewWarehouse* multi = nullptr;
  std::unique_ptr<Simulation> sim = MakeMultiSim(f, &multi);
  sim->SetUpdateScript({Update::Insert("r2", Tuple::Ints({2, 7})),
                        Update::Insert("r3", Tuple::Ints({7, 9})),
                        Update::Delete("r1", Tuple::Ints({1, 2}))});
  WorstCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  ASSERT_TRUE(multi->IsQuiescent());

  Result<Relation> v1_expected = EvaluateView(f.v1, sim->source_catalog());
  Result<Relation> v2_expected = EvaluateView(f.v2, sim->source_catalog());
  ASSERT_TRUE(v1_expected.ok());
  ASSERT_TRUE(v2_expected.ok());
  EXPECT_EQ(multi->child(0).view_contents(), *v1_expected);
  EXPECT_EQ(multi->child(1).view_contents(), *v2_expected);
}

TEST(MultiViewTest, IrrelevantUpdatesOnlyReachInterestedViews) {
  TwoViewFixture f = TwoViewFixture::Make();
  MultiViewWarehouse* multi = nullptr;
  std::unique_ptr<Simulation> sim = MakeMultiSim(f, &multi);
  // r1 is only in V1; r3 only in V2; r2 in both.
  sim->SetUpdateScript({Update::Insert("r1", Tuple::Ints({5, 2})),
                        Update::Insert("r3", Tuple::Ints({3, 8})),
                        Update::Insert("r2", Tuple::Ints({2, 3}))});
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  // r1 update: 1 query (V1); r3 update: 1 query (V2); r2 update: 2.
  EXPECT_EQ(sim->meter().query_messages(), 4);
}

TEST(MultiViewTest, AnswerRoutingSurvivesInterleavedQueries) {
  TwoViewFixture f = TwoViewFixture::Make();
  MultiViewWarehouse* multi = nullptr;
  std::unique_ptr<Simulation> sim = MakeMultiSim(f, &multi);
  // Updates to the shared relation r2 create queries from both children in
  // the same events; answers must return to their owners.
  sim->SetUpdateScript({Update::Insert("r2", Tuple::Ints({2, 3})),
                        Update::Insert("r2", Tuple::Ints({2, 9})),
                        Update::Delete("r2", Tuple::Ints({2, 3}))});
  RandomPolicy policy(77);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  Result<Relation> v1_expected = EvaluateView(f.v1, sim->source_catalog());
  Result<Relation> v2_expected = EvaluateView(f.v2, sim->source_catalog());
  EXPECT_EQ(multi->child(0).view_contents(), *v1_expected);
  EXPECT_EQ(multi->child(1).view_contents(), *v2_expected);
}

class MultiViewSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiViewSweep, BothViewsConvergeUnderRandomInterleavings) {
  TwoViewFixture f = TwoViewFixture::Make();
  MultiViewWarehouse* multi = nullptr;
  std::unique_ptr<Simulation> sim = MakeMultiSim(f, &multi);
  Random rng(GetParam());
  Catalog shadow = f.initial.Clone();
  std::vector<Update> updates;
  const char* names[] = {"r1", "r2", "r3"};
  for (int i = 0; i < 8; ++i) {
    const char* rel = names[rng.Uniform(3)];
    const Relation* live = shadow.Get(rel).value();
    Update u;
    if (!live->IsEmpty() && rng.Bernoulli(1, 3)) {
      auto it = live->entries().begin();
      std::advance(it, rng.Uniform(live->NumDistinct()));
      u = Update::Delete(rel, it->first);
    } else {
      u = Update::Insert(rel, Tuple::Ints({rng.UniformRange(0, 6),
                                           rng.UniformRange(0, 6)}));
    }
    ASSERT_TRUE(shadow.Apply(u).ok());
    updates.push_back(std::move(u));
  }
  sim->SetUpdateScript(updates);
  RandomPolicy policy(GetParam() * 31);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(multi->child(0).view_contents(),
            *EvaluateView(f.v1, sim->source_catalog()));
  EXPECT_EQ(multi->child(1).view_contents(),
            *EvaluateView(f.v2, sim->source_catalog()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiViewSweep,
                         ::testing::Range<uint64_t>(1, 21));

// --- Shared maintenance (cross-view query dedup) ----------------------------

TEST(MultiViewDedupTest, SharedUpdateMergesQueriesIntoOneMessage) {
  // r2 is in both views, so one r2 update makes both children query. With
  // dedup on the two compensating queries ride ONE wire message (the two
  // views are structurally different, so their terms merge without
  // deduplicating); with dedup off, two messages as before.
  for (bool dedup : {false, true}) {
    TwoViewFixture f = TwoViewFixture::Make();
    MultiViewWarehouse* multi = nullptr;
    std::unique_ptr<Simulation> sim = MakeMultiSim(f, &multi, dedup);
    sim->SetUpdateScript({Update::Insert("r2", Tuple::Ints({2, 7}))});
    BestCasePolicy policy;
    ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    EXPECT_EQ(sim->meter().query_messages(), dedup ? 1 : 2);
    EXPECT_EQ(sim->meter().deduped_query_terms(), 0);
    EXPECT_TRUE(multi->IsQuiescent());
    EXPECT_EQ(multi->child(0).view_contents(),
              *EvaluateView(f.v1, sim->source_catalog()));
    EXPECT_EQ(multi->child(1).view_contents(),
              *EvaluateView(f.v2, sim->source_catalog()));
  }
}

TEST(MultiViewDedupTest, StructurallyIdenticalViewsShareOneTerm) {
  // Two children over separately constructed but structurally identical
  // view definitions: their compensating terms have equal signatures, so
  // the shared query carries the term ONCE and the saving is metered.
  TwoViewFixture f = TwoViewFixture::Make();
  Schema s1 = Schema::Ints({"W", "X"});
  Schema s2 = Schema::Ints({"X", "Y"});
  ViewDefinitionPtr v1_twin =
      *ViewDefinition::NaturalJoin("V1twin", {{"r1", s1}, {"r2", s2}}, {"W"});
  ASSERT_NE(v1_twin.get(), f.v1.get());

  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(f.v1));
  children.push_back(std::make_unique<Eca>(v1_twin));
  MultiViewOptions mv_options;
  mv_options.dedup = true;
  auto multi_owner = std::make_unique<MultiViewWarehouse>(std::move(children),
                                                          mv_options);
  MultiViewWarehouse* multi = multi_owner.get();
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      f.initial, f.v1, std::move(multi_owner), SimulationOptions());
  ASSERT_TRUE(sim.ok()) << sim.status();
  (*sim)->SetUpdateScript({Update::Insert("r1", Tuple::Ints({5, 2}))});
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  // One message, one term on the wire, one term saved.
  EXPECT_EQ((*sim)->meter().query_messages(), 1);
  EXPECT_EQ((*sim)->meter().query_terms(), 1);
  EXPECT_EQ((*sim)->meter().deduped_query_terms(), 1);
  Result<Relation> expected = EvaluateView(f.v1, (*sim)->source_catalog());
  EXPECT_EQ(multi->child(0).view_contents(), *expected);
  EXPECT_EQ(multi->child(1).view_contents(), *expected);
}

TEST(MultiViewDedupTest, SharedAnswerMissingTermResultsIsInternal) {
  // r2 is in both views, so with dedup on the two children's queries merge
  // into one shared query. An answer carrying fewer term results than the
  // shared query has terms cannot be fanned back out.
  TwoViewFixture f = TwoViewFixture::Make();
  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(f.v1));
  children.push_back(std::make_unique<Eca>(f.v2));
  MultiViewOptions mv_options;
  mv_options.dedup = true;
  MultiViewWarehouse multi(std::move(children), mv_options);
  ASSERT_TRUE(multi.Initialize(f.initial).ok());
  RecordingContext ctx;
  Update u = Update::Insert("r2", Tuple::Ints({2, 7}));
  u.id = 1;
  ASSERT_TRUE(multi.OnUpdate(u, &ctx).ok());
  ASSERT_EQ(ctx.sent.size(), 1u);
  ASSERT_EQ(ctx.sent[0].NumTerms(), 2u);
  AnswerMessage a;
  a.query_id = ctx.sent[0].id();
  a.update_id = u.id;
  EXPECT_EQ(multi.OnAnswer(a, &ctx).code(), StatusCode::kInternal);
}

// Dedup on vs off must be observationally identical to every child: same
// final contents, tuple for tuple, across random and adversarial
// interleavings — the fan-out rebuilds each child's private answer exactly.
class MultiViewDedupSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiViewDedupSweep, DedupMatchesIndependentBaseline) {
  const uint64_t seed = GetParam();
  std::vector<Update> updates;
  {
    Random rng(seed);
    Catalog shadow = TwoViewFixture::Make().initial.Clone();
    const char* names[] = {"r1", "r2", "r3"};
    for (int i = 0; i < 10; ++i) {
      const char* rel = names[rng.Uniform(3)];
      const Relation* live = shadow.Get(rel).value();
      Update u;
      if (!live->IsEmpty() && rng.Bernoulli(1, 3)) {
        auto it = live->entries().begin();
        std::advance(it, rng.Uniform(live->NumDistinct()));
        u = Update::Delete(rel, it->first);
      } else {
        u = Update::Insert(rel, Tuple::Ints({rng.UniformRange(0, 6),
                                             rng.UniformRange(0, 6)}));
      }
      ASSERT_TRUE(shadow.Apply(u).ok());
      updates.push_back(std::move(u));
    }
  }
  for (bool worst_case : {false, true}) {
    std::vector<Relation> baseline;
    int64_t baseline_messages = 0;
    for (bool dedup : {false, true}) {
      TwoViewFixture f = TwoViewFixture::Make();
      MultiViewWarehouse* multi = nullptr;
      std::unique_ptr<Simulation> sim = MakeMultiSim(f, &multi, dedup);
      sim->SetUpdateScript(updates);
      if (worst_case) {
        WorstCasePolicy policy;
        ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
      } else {
        RandomPolicy policy(seed * 31);
        ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
      }
      ASSERT_TRUE(multi->IsQuiescent());
      EXPECT_EQ(multi->child(0).view_contents(),
                *EvaluateView(f.v1, sim->source_catalog()));
      EXPECT_EQ(multi->child(1).view_contents(),
                *EvaluateView(f.v2, sim->source_catalog()));
      if (!dedup) {
        baseline = {multi->child(0).view_contents(),
                    multi->child(1).view_contents()};
        baseline_messages = sim->meter().query_messages();
      } else {
        EXPECT_EQ(multi->child(0).view_contents(), baseline[0]);
        EXPECT_EQ(multi->child(1).view_contents(), baseline[1]);
        EXPECT_LE(sim->meter().query_messages(), baseline_messages);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiViewDedupSweep,
                         ::testing::Range<uint64_t>(1, 16));

// --- Compiled-plan pre-warm at Initialize -----------------------------------

TEST(SharedPlanPrewarmTest, InitializeCompilesEveryChildMask) {
  // ViewDefinition::Create pre-warms the empty and single-bound masks; the
  // multi-view Initialize pre-warms the REST of each child view's masks, so
  // the maintenance loop (including batch inclusion-exclusion shapes) never
  // compiles on first touch.
  TwoViewFixture f = TwoViewFixture::Make();
  EXPECT_FALSE(f.v1->HasCompiledPlanFor(0b11));
  EXPECT_FALSE(f.v2->HasCompiledPlanFor(0b11));
  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(f.v1));
  children.push_back(std::make_unique<Eca>(f.v2));
  MultiViewWarehouse multi(std::move(children));
  ASSERT_TRUE(multi.Initialize(f.initial).ok());
  for (uint64_t mask = 0; mask < 4; ++mask) {
    EXPECT_TRUE(f.v1->HasCompiledPlanFor(mask)) << "v1 mask " << mask;
    EXPECT_TRUE(f.v2->HasCompiledPlanFor(mask)) << "v2 mask " << mask;
  }
}

// --- Deferred / periodic timing ---------------------------------------------

TEST(DeferredTest, PeriodicFlushEveryThreshold) {
  Random rng(3);
  Result<Workload> w = MakeExample6Workload({20, 2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 9, 0.3, &rng);
  ASSERT_TRUE(updates.ok());

  auto inner = std::make_unique<EcaBatch>(w->view);
  auto deferred = std::make_unique<Deferred>(std::move(inner),
                                             /*threshold=*/3);
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      w->initial, w->view, std::move(deferred), SimulationOptions());
  ASSERT_TRUE(sim.ok());
  (*sim)->SetUpdateScript(*updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  // 9 updates, flush every 3 -> 3 inclusion-exclusion queries.
  EXPECT_EQ((*sim)->meter().query_messages(), 3);
  Result<Relation> expected = (*sim)->SourceViewNow();
  EXPECT_EQ((*sim)->warehouse_view(), *expected);
  // Stale-but-valid between flushes: still consistent.
  ConsistencyReport report = CheckConsistency((*sim)->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

TEST(DeferredTest, PureDeferredFlushesOnReaderDemand) {
  Random rng(4);
  Result<Workload> w = MakeExample6Workload({20, 2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 5, 0.3, &rng);
  ASSERT_TRUE(updates.ok());

  auto inner = std::make_unique<Eca>(w->view);
  auto deferred_owner = std::make_unique<Deferred>(std::move(inner),
                                                   /*threshold=*/0);
  Deferred* deferred = deferred_owner.get();
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      w->initial, w->view, std::move(deferred_owner), SimulationOptions());
  ASSERT_TRUE(sim.ok());
  (*sim)->SetUpdateScript(*updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  // Nothing flushed: no queries, stale view, 5 buffered updates.
  EXPECT_EQ((*sim)->meter().query_messages(), 0);
  EXPECT_EQ(deferred->buffered(), 5u);
  // A reader queries the warehouse view: flush, then drain.
  ASSERT_TRUE(deferred->Flush((*sim)->warehouse_context()).ok());
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  EXPECT_EQ(deferred->buffered(), 0u);
  Result<Relation> expected = (*sim)->SourceViewNow();
  EXPECT_EQ((*sim)->warehouse_view(), *expected);
}

// --- Modifications -----------------------------------------------------------

TEST(ModificationTest, ExpandsToDeletePlusInsert) {
  std::vector<Update> pair =
      ModifyAsDeleteInsert("r1", Tuple::Ints({1, 2}), Tuple::Ints({1, 9}));
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0].kind, UpdateKind::kDelete);
  EXPECT_EQ(pair[0].tuple, Tuple::Ints({1, 2}));
  EXPECT_EQ(pair[1].kind, UpdateKind::kInsert);
  EXPECT_EQ(pair[1].tuple, Tuple::Ints({1, 9}));
}

TEST(ModificationTest, AtomicModifyBatchKeepsViewConsistent) {
  TwoViewFixture f = TwoViewFixture::Make();
  std::unique_ptr<Simulation> sim =
      MustMakeSim(f.initial, f.v1, Algorithm::kEca);
  // Modify r2's [2,3] to [2,8] atomically, then modify r1's [1,2] to [6,2].
  sim->SetUpdateScriptBatches({
      ModifyAsDeleteInsert("r2", Tuple::Ints({2, 3}), Tuple::Ints({2, 8})),
      ModifyAsDeleteInsert("r1", Tuple::Ints({1, 2}), Tuple::Ints({6, 2})),
  });
  RandomPolicy policy(5);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  // Final view: the modified r1 tuple [6,2] joins the modified r2 [2,8].
  EXPECT_EQ(sim->warehouse_view(),
            Relation::FromTuples(f.v1->output_schema(), {Tuple::Ints({6})}));
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
  // Atomicity: no recorded source state shows the half-modified relation
  // (the state after only the delete).
  for (const Relation& s :
       sim->state_log().source_view_states.MaterializeAll()) {
    (void)s;  // states exist per batch, not per half-update
  }
  EXPECT_EQ(sim->state_log().source_view_states.size(), 3u);  // ss0 + 2
}

TEST(ModificationTest, EcaBatchHandlesSameRelationModifyPair) {
  // IncExc over {delete(t), insert(t')} on the same relation: the pair
  // term vanishes, leaving exactly -V<t> + V<t'>.
  TwoViewFixture f = TwoViewFixture::Make();
  SimulationOptions options;
  std::unique_ptr<Simulation> sim =
      MustMakeSim(f.initial, f.v1, Algorithm::kEcaBatch, options);
  sim->SetUpdateScriptBatches({
      ModifyAsDeleteInsert("r2", Tuple::Ints({2, 3}), Tuple::Ints({2, 8})),
  });
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 1);
  EXPECT_EQ(sim->meter().query_terms(), 2);  // delete term + insert term
  Result<Relation> expected = sim->SourceViewNow();
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

}  // namespace
}  // namespace wvm
