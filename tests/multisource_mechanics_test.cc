// Mechanics of the multi-source simulator itself: per-source FIFO
// ordering, enabled-action bookkeeping, fragment metering, heterogeneous
// warehouse composition (one MultiViewWarehouse child per algorithm).
#include <gtest/gtest.h>

#include "core/eca.h"
#include "core/eca_key.h"
#include "core/multi_view.h"
#include "multisource/ms_eca.h"
#include "multisource/ms_eca_snapshot.h"
#include "multisource/ms_simulation.h"
#include "test_util.h"

namespace wvm {
namespace {

struct TwoSource {
  std::vector<Catalog> per_source;
  ViewDefinitionPtr view;

  static TwoSource Make() {
    TwoSource f;
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Catalog a, b;
    EXPECT_TRUE(a.DefineWithData({"r1", s1},
                                 Relation::FromTuples(
                                     s1, {Tuple::Ints({1, 2})}))
                    .ok());
    EXPECT_TRUE(b.DefineWithData({"r2", s2},
                                 Relation::FromTuples(
                                     s2, {Tuple::Ints({2, 5})}))
                    .ok());
    f.per_source = {std::move(a), std::move(b)};
    f.view = *ViewDefinition::NaturalJoin("V", {{"r1", s1}, {"r2", s2}},
                                          {"W", "Y"});
    return f;
  }
};

TEST(MsMechanicsTest, EnabledActionsTrackChannels) {
  TwoSource f = TwoSource::Make();
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<MsEca>(f.view));
  ASSERT_TRUE(sim.ok());
  EXPECT_TRUE((*sim)->Quiescent());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(0,
                                    {Update::Insert("r1", Tuple::Ints({4, 2}))})
                  .ok());
  ASSERT_EQ((*sim)->EnabledActions().size(), 1u);
  EXPECT_EQ((*sim)->EnabledActions()[0].kind,
            MsAction::Kind::kSourceUpdate);

  ASSERT_TRUE((*sim)->StepSourceUpdate(0).ok());
  // Now the warehouse has a notification from source 0.
  EXPECT_TRUE((*sim)->CanWarehouseStep(0));
  EXPECT_FALSE((*sim)->CanWarehouseStep(1));
  ASSERT_TRUE((*sim)->StepWarehouse(0).ok());
  // MsEca asked source 1 for the r2 fragment.
  EXPECT_TRUE((*sim)->CanSourceAnswer(1));
  EXPECT_FALSE((*sim)->CanSourceAnswer(0));
  ASSERT_TRUE((*sim)->StepSourceAnswer(1).ok());
  ASSERT_TRUE((*sim)->StepWarehouse(1).ok());
  EXPECT_TRUE((*sim)->Quiescent());
  EXPECT_EQ((*sim)->fragment_requests(), 1);
  EXPECT_EQ((*sim)->fragment_tuples(), 1);  // r2 has one tuple
}

TEST(MsMechanicsTest, BestCasePriorityIsWarehouseThenAnswerThenUpdate) {
  // RunBestCase's ordering is a semantic contract (drain warehouse work,
  // then answers, then admit the next update), not an artifact of the
  // MsAction::Kind declaration order — pin it explicitly so reordering the
  // enum can never silently invert the paper's best-case regime.
  EXPECT_GT(MsActionPriority(MsAction::Kind::kWarehouseStep),
            MsActionPriority(MsAction::Kind::kSourceAnswer));
  EXPECT_GT(MsActionPriority(MsAction::Kind::kSourceAnswer),
            MsActionPriority(MsAction::Kind::kSourceUpdate));
}

TEST(MsMechanicsTest, PerSourceFifoHoldsNotificationBeforeFragment) {
  // A source that executed an update BEFORE answering a fragment must
  // deliver the notification first on its channel.
  TwoSource f = TwoSource::Make();
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<MsEca>(f.view));
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(0,
                                    {Update::Insert("r1", Tuple::Ints({4, 2})),
                                     Update::Insert("r1", Tuple::Ints({6, 2}))})
                  .ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(1,
                                    {Update::Insert("r2", Tuple::Ints({2, 9}))})
                  .ok());
  // U_A1 -> warehouse processes -> fragment request to B;
  // B executes U_B1 BEFORE answering -> warehouse must see U_B1 first.
  ASSERT_TRUE((*sim)->StepSourceUpdate(0).ok());
  ASSERT_TRUE((*sim)->StepWarehouse(0).ok());
  ASSERT_TRUE((*sim)->StepSourceUpdate(1).ok());
  ASSERT_TRUE((*sim)->StepSourceAnswer(1).ok());
  // Drain everything; correctness of the final view is the acid test that
  // compensation saw U_B1 in time.
  ASSERT_TRUE((*sim)->RunBestCase().ok());
  EXPECT_EQ((*sim)->warehouse_view(), *(*sim)->GlobalViewNow());
}

TEST(MsSnapshotMechanicsTest, RewindUndoesExactlyTheOvertakenUpdates) {
  // Deterministic replay of the mechanism: Q for U_A1 = insert(r1,[9,2])
  // awaits r2@B; B executes two updates BEFORE answering, so the fragment
  // shows both and the rewind list holds both; the folded delta must be
  // V<U_A1> at U_A1's own state — i.e., joining the ORIGINAL r2 only.
  Schema s1 = Schema::Ints({"W", "X"});
  Schema s2 = Schema::Ints({"X", "Y"});
  Catalog a, b;
  ASSERT_TRUE(a.DefineWithData({"r1", s1},
                               Relation::FromTuples(s1, {Tuple::Ints({1, 2})}))
                  .ok());
  ASSERT_TRUE(b.DefineWithData({"r2", s2},
                               Relation::FromTuples(s2, {Tuple::Ints({2, 5})}))
                  .ok());
  ViewDefinitionPtr view = *ViewDefinition::NaturalJoin(
      "V", {{"r1", s1}, {"r2", s2}}, {"W", "Y"});
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      {a, b}, view, std::make_unique<MsEcaSnapshot>(view));
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(0,
                                    {Update::Insert("r1", Tuple::Ints({9, 2}))})
                  .ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(1,
                                    {Update::Insert("r2", Tuple::Ints({2, 6})),
                                     Update::Delete("r2", Tuple::Ints({2, 5}))})
                  .ok());
  // U_A1; warehouse -> fragment request to B; B executes BOTH updates,
  // THEN answers; warehouse consumes B's channel in order: U_B1, U_B2,
  // fragment.
  ASSERT_TRUE((*sim)->StepSourceUpdate(0).ok());
  ASSERT_TRUE((*sim)->StepWarehouse(0).ok());
  ASSERT_TRUE((*sim)->StepSourceUpdate(1).ok());
  ASSERT_TRUE((*sim)->StepSourceUpdate(1).ok());
  ASSERT_TRUE((*sim)->StepSourceAnswer(1).ok());
  ASSERT_TRUE((*sim)->StepWarehouse(1).ok());  // U_B1 -> rewind + own query
  ASSERT_TRUE((*sim)->StepWarehouse(1).ok());  // U_B2 -> rewind + own query
  ASSERT_TRUE((*sim)->StepWarehouse(1).ok());  // fragment for Q_A1 -> fold
  // Drain the remaining round trips.
  ASSERT_TRUE((*sim)->RunBestCase().ok());
  EXPECT_EQ((*sim)->warehouse_view(), *(*sim)->GlobalViewNow());
  // Final view: [9,6] (r2 now holds [2,6]); [1,6] as well; [x,5] gone.
  EXPECT_EQ((*sim)->warehouse_view().CountOf(Tuple::Ints({9, 6})), 1);
  EXPECT_EQ((*sim)->warehouse_view().CountOf(Tuple::Ints({9, 5})), 0);
  ConsistencyReport report = CheckConsistency((*sim)->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

TEST(MsMechanicsTest, OutOfRangeSourcesRejected) {
  TwoSource f = TwoSource::Make();
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<MsEca>(f.view));
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ((*sim)->SetUpdateScript(5, {}).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE((*sim)->StepSourceUpdate(0).ok());  // empty script
  const size_t n = (*sim)->num_sources();
  EXPECT_EQ((*sim)->StepSourceUpdate(n).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*sim)->StepSourceAnswer(n).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*sim)->StepWarehouse(n).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE((*sim)->CanSourceUpdate(n));
  EXPECT_FALSE((*sim)->CanSourceAnswer(n));
  EXPECT_FALSE((*sim)->CanWarehouseStep(n));
  EXPECT_FALSE((*sim)->source_up(n));
  // With crash-restart supported, the crash entry points check too.
  MsSimulationOptions options;
  options.fault.enabled = true;
  options.fault.reliable = true;
  options.recovery.enabled = true;
  Result<std::unique_ptr<MsSimulation>> durable = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<MsEca>(f.view), options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_FALSE((*durable)->CanCrashSource(n));
  EXPECT_EQ((*durable)->CrashSource(n).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*durable)->RestartSource(n).code(), StatusCode::kOutOfRange);
}

TEST(MultiViewHeterogeneousTest, EcaAndEcaKeyChildrenCoexist) {
  // One warehouse, two views over the same source: an unkeyed join view
  // under ECA and a keyed view under ECA-Key, fed by one notification
  // stream.
  Schema s1({{"W", ValueType::kInt, true}, {"X", ValueType::kInt, false}});
  Schema s2({{"X", ValueType::kInt, false}, {"Y", ValueType::kInt, true}});
  Catalog initial;
  ASSERT_TRUE(initial
                  .DefineWithData({"r1", s1},
                                  Relation::FromTuples(
                                      s1, {Tuple::Ints({1, 2})}))
                  .ok());
  ASSERT_TRUE(initial
                  .DefineWithData({"r2", s2},
                                  Relation::FromTuples(
                                      s2, {Tuple::Ints({2, 3})}))
                  .ok());
  ViewDefinitionPtr unkeyed = *ViewDefinition::NaturalJoin(
      "V1", {{"r1", s1}, {"r2", s2}}, {"X"});
  ViewDefinitionPtr keyed = *ViewDefinition::NaturalJoin(
      "V2", {{"r1", s1}, {"r2", s2}}, {"W", "Y"});

  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(unkeyed));
  children.push_back(std::make_unique<EcaKey>(keyed));
  auto multi = std::make_unique<MultiViewWarehouse>(std::move(children));
  MultiViewWarehouse* raw = multi.get();
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      initial, unkeyed, std::move(multi), SimulationOptions());
  ASSERT_TRUE(sim.ok()) << sim.status();
  (*sim)->SetUpdateScript({Update::Insert("r2", Tuple::Ints({2, 9})),
                           Update::Delete("r1", Tuple::Ints({1, 2})),
                           Update::Insert("r1", Tuple::Ints({5, 2}))});
  RandomPolicy policy(21);
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());

  Result<Relation> v1 = EvaluateView(unkeyed, (*sim)->source_catalog());
  Result<Relation> v2 = EvaluateView(keyed, (*sim)->source_catalog());
  EXPECT_EQ(raw->child(0).view_contents(), *v1);
  EXPECT_EQ(raw->child(1).view_contents(), *v2);
}

}  // namespace
}  // namespace wvm
