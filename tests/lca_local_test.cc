// Behavioral tests for LCA (the complete lazy variant) and ECA-Local (local
// fast paths + compensation).
#include <gtest/gtest.h>

#include "consistency_reference.h"
#include "core/eca.h"
#include "core/eca_key.h"
#include "core/eca_local.h"
#include "core/lca.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

TEST(LcaTest, WalksThroughEverySourceStateOnExample4) {
  Result<PaperExample> ex = MakePaperExample4();
  ASSERT_TRUE(ex.ok());
  ex->algorithm = "lca";
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.complete) << report.ToString()
                               << sim->state_log().ToString();
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
}

TEST(LcaTest, DeltasAppliedInUpdateOrderDespiteAnswerOrder) {
  // Example 7's interleaving answers Q1 before U3 even exists; LCA must
  // still apply delta_1, delta_2, delta_3 in order.
  Result<PaperExample> ex = MakePaperExample7();
  ASSERT_TRUE(ex.ok());
  ex->algorithm = "lca";
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
  EXPECT_TRUE(CheckConsistency(sim->state_log()).complete);
}

TEST(LcaTest, PerUpdateDeltasMatchSourceTransitions) {
  // Record the deduped warehouse states and check they are exactly the
  // deduped source states, in order — the strongest statement of
  // completeness.
  Random rng(3);
  Result<Workload> w = MakeExample6Workload({12, 2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 10, 0.3, &rng);
  ASSERT_TRUE(updates.ok());
  std::unique_ptr<Simulation> sim =
      MustMakeSim(w->initial, w->view, Algorithm::kLca);
  sim->SetUpdateScript(*updates);
  WorstCasePolicy policy;  // adversarial: all compensation kicks in
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  const std::vector<Relation> src =
      reference::Dedup(sim->state_log().source_view_states.MaterializeAll());
  const std::vector<Relation> wh = reference::Dedup(
      sim->state_log().warehouse_view_states.MaterializeAll());
  ASSERT_EQ(src.size(), wh.size());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(src[i], wh[i]) << "state " << i;
  }
}

TEST(LcaTest, QuiescentAfterDrain) {
  Result<PaperExample> ex = MakePaperExample4();
  ASSERT_TRUE(ex.ok());
  ex->algorithm = "lca";
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_TRUE(sim->maintainer().IsQuiescent());
}

TEST(EcaLocalTest, KeyedDeletesAreLocal) {
  Random rng(5);
  Result<Workload> w = MakeKeyedWorkload({12, 3}, &rng);
  ASSERT_TRUE(w.ok());
  auto maintainer = std::make_unique<EcaLocal>(w->view);
  EcaLocal* local = maintainer.get();
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      w->initial, w->view, std::move(maintainer), SimulationOptions());
  ASSERT_TRUE(sim.ok());
  (*sim)->SetUpdateScript({Update::Delete("r1", Tuple::Ints({0, 0})),
                           Update::Insert("r1", Tuple::Ints({50, 1})),
                           Update::Delete("r2", Tuple::Ints({1, 1}))});
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  EXPECT_EQ(local->local_updates(), 2);
  EXPECT_EQ(local->remote_updates(), 1);
  EXPECT_EQ((*sim)->meter().query_messages(), 1);
  Result<Relation> expected = (*sim)->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*sim)->warehouse_view(), *expected);
}

TEST(EcaLocalTest, SingleRelationViewNeverQueriesSource) {
  // V = pi_W(sigma_{W>5}(r1)): every update is autonomously computable.
  Schema s1 = Schema::Ints({"W", "X"});
  Catalog initial;
  ASSERT_TRUE(initial
                  .DefineWithData({"r1", s1},
                                  Relation::FromTuples(
                                      s1, {Tuple::Ints({3, 0}),
                                           Tuple::Ints({9, 0})}))
                  .ok());
  Result<ViewDefinitionPtr> view = ViewDefinition::Create(
      "V", {{"r1", s1}}, {"W"},
      Predicate::Compare(Operand::Attr("W"), CompareOp::kGt,
                         Operand::ConstInt(5)));
  ASSERT_TRUE(view.ok());
  std::unique_ptr<Simulation> sim =
      MustMakeSim(initial, *view, Algorithm::kEcaLocal);
  sim->SetUpdateScript({Update::Insert("r1", Tuple::Ints({7, 1})),
                        Update::Insert("r1", Tuple::Ints({2, 1})),
                        Update::Delete("r1", Tuple::Ints({9, 0}))});
  RandomPolicy policy(11);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 0);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);  // ([7])
  EXPECT_EQ(sim->warehouse_view().CountOf(Tuple::Ints({7})), 1);
}

TEST(EcaLocalTest, MixedLocalRemoteOrderingPreserved) {
  // Insert (remote), delete of an initial tuple (local), insert (remote):
  // the local op must be applied between the two deltas, not first/last.
  Random rng(5);
  Result<Workload> w = MakeKeyedWorkload({12, 3}, &rng);
  ASSERT_TRUE(w.ok());
  std::unique_ptr<Simulation> sim =
      MustMakeSim(w->initial, w->view, Algorithm::kEcaLocal);
  sim->SetUpdateScript({Update::Insert("r2", Tuple::Ints({2, 50})),
                        Update::Delete("r2", Tuple::Ints({2, 50})),
                        Update::Insert("r2", Tuple::Ints({2, 51}))});
  WorstCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
  // Y=50 must be gone, Y=51 present.
  int64_t with_50 = 0;
  int64_t with_51 = 0;
  for (const auto& [t, c] : sim->warehouse_view().entries()) {
    (void)c;
    if (t.value(1) == Value(int64_t{50})) {
      ++with_50;
    }
    if (t.value(1) == Value(int64_t{51})) {
      ++with_51;
    }
  }
  EXPECT_EQ(with_50, 0);
  EXPECT_GT(with_51, 0);
}

TEST(EcaLocalTest, FallsBackToEcaWithoutKeys) {
  // Unkeyed multi-relation view: everything is remote; behavior must match
  // plain ECA's message pattern.
  Random rng(6);
  Result<Workload> w = MakeExample6Workload({12, 2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 6, 0.3, &rng);
  ASSERT_TRUE(updates.ok());

  auto run = [&](Algorithm a) {
    std::unique_ptr<Simulation> sim = MustMakeSim(w->initial, w->view, a);
    sim->SetUpdateScript(*updates);
    WorstCasePolicy policy;
    EXPECT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    return sim;
  };
  std::unique_ptr<Simulation> local = run(Algorithm::kEcaLocal);
  std::unique_ptr<Simulation> eca = run(Algorithm::kEca);
  EXPECT_EQ(local->meter().query_messages(), eca->meter().query_messages());
  EXPECT_EQ(local->meter().query_terms(), eca->meter().query_terms());
  EXPECT_EQ(local->warehouse_view(), eca->warehouse_view());
}

// --- Malformed answers -------------------------------------------------------

// An answer whose tags do not line up with its term results cannot be split
// per update: LCA and ECA-Local fold answers through the same per-update
// buffer, and both refuse it.
TEST(TaggedAnswerTest, TagsMisalignedWithResultsAreInternal) {
  Result<PaperExample> ex = MakePaperExample4();
  ASSERT_TRUE(ex.ok()) << ex.status();
  std::vector<std::unique_ptr<ViewMaintainer>> maintainers;
  maintainers.push_back(std::make_unique<Lca>(ex->view));
  maintainers.push_back(std::make_unique<EcaLocal>(ex->view));
  for (std::unique_ptr<ViewMaintainer>& m : maintainers) {
    SCOPED_TRACE(m->name());
    ASSERT_TRUE(m->Initialize(ex->initial).ok());
    RecordingContext ctx;
    Update u = ex->updates[0];
    u.id = 1;
    ASSERT_TRUE(m->OnUpdate(u, &ctx).ok());
    ASSERT_EQ(ctx.sent.size(), 1u);
    AnswerMessage a;
    a.query_id = ctx.sent[0].id();
    a.update_id = u.id;
    a.per_term.push_back(Relation(ex->view->output_schema()));  // no tags
    EXPECT_EQ(m->OnAnswer(a, &ctx).code(), StatusCode::kInternal);
  }
}

// Every maintainer that tracks pending queries refuses an answer to a query
// it never sent.
TEST(UnansweredQueriesTest, AnswerForUnknownQueryIdIsInternal) {
  Result<PaperExample> ex = MakePaperExample5();  // keyed: ECA-Key applies
  ASSERT_TRUE(ex.ok()) << ex.status();
  std::vector<std::unique_ptr<ViewMaintainer>> maintainers;
  maintainers.push_back(std::make_unique<Eca>(ex->view));
  maintainers.push_back(std::make_unique<EcaLocal>(ex->view));
  maintainers.push_back(std::make_unique<Lca>(ex->view));
  maintainers.push_back(std::make_unique<EcaKey>(ex->view));
  for (std::unique_ptr<ViewMaintainer>& m : maintainers) {
    SCOPED_TRACE(m->name());
    ASSERT_TRUE(m->Initialize(ex->initial).ok());
    RecordingContext ctx;
    AnswerMessage a;
    a.query_id = 42;
    Status s = m->OnAnswer(a, &ctx);
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s;
    EXPECT_TRUE(m->IsQuiescent());
  }
}

}  // namespace
}  // namespace wvm
