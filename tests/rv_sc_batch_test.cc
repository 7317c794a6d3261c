// Behavioral tests for the RV and SC baselines and the EcaBatch extension.
#include <gtest/gtest.h>

#include "core/eca_sc.h"
#include "core/rv.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

struct ChainFixture {
  Workload workload;
  std::vector<Update> updates;

  static ChainFixture Make(uint64_t seed, int64_t k) {
    Random rng(seed);
    Result<Workload> w = MakeExample6Workload({12, 2}, &rng);
    EXPECT_TRUE(w.ok());
    Result<std::vector<Update>> updates = MakeMixedUpdates(*w, k, 0.3, &rng);
    EXPECT_TRUE(updates.ok());
    return ChainFixture{std::move(*w), std::move(*updates)};
  }
};

TEST(RvTest, PeriodOneRecomputesEveryUpdate) {
  ChainFixture f = ChainFixture::Make(1, 6);
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kRv, {}, /*period=*/1);
  sim->SetUpdateScript(f.updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 6);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(RvTest, PeriodSRecomputesEveryS) {
  ChainFixture f = ChainFixture::Make(1, 6);
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kRv, {}, /*period=*/3);
  sim->SetUpdateScript(f.updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  // M_RV = 2*ceil(k/s) = 4 messages for k=6, s=3.
  EXPECT_EQ(sim->meter().messages(), 4);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(RvTest, StaleWhenPeriodDoesNotDivideK) {
  // k=5, s=3: only one recomputation after U3; the view lags behind unless
  // U4/U5 happen not to change it.
  ChainFixture f = ChainFixture::Make(2, 5);
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kRv, {}, /*period=*/3);
  sim->SetUpdateScript(f.updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 1);
  // Consistency still holds: the installed state was a real source state.
  ConsistencyReport r = CheckConsistency(sim->state_log());
  EXPECT_TRUE(r.consistent) << r.ToString();
}

TEST(RvTest, ReplacesRatherThanMerges) {
  ChainFixture f = ChainFixture::Make(3, 4);
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kRv, {}, /*period=*/2);
  sim->SetUpdateScript(f.updates);
  WorstCasePolicy policy;  // recompute answers pile up; each overwrites
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(ScTest, NeverTalksToTheSource) {
  ChainFixture f = ChainFixture::Make(4, 8);
  std::unique_ptr<Simulation> sim =
      MustMakeSim(f.workload.initial, f.workload.view, Algorithm::kSc);
  sim->SetUpdateScript(f.updates);
  RandomPolicy policy(4);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().messages(), 0);
  EXPECT_EQ(sim->meter().bytes_transferred(), 0);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(ScTest, ReplicasMirrorSourceRelations) {
  ChainFixture f = ChainFixture::Make(5, 6);
  std::unique_ptr<ViewMaintainer> maintainer =
      MustMakeMaintainer({.algorithm = Algorithm::kSc}, f.workload.view);
  const auto* sc = dynamic_cast<const EcaSc*>(maintainer.get());
  ASSERT_NE(sc, nullptr);
  Result<std::unique_ptr<Simulation>> sim =
      Simulation::Create(f.workload.initial, f.workload.view,
                         std::move(maintainer), SimulationOptions());
  ASSERT_TRUE(sim.ok());
  (*sim)->SetUpdateScript(f.updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  ASSERT_EQ(sc->replicas().Names().size(), f.workload.view->num_relations());
  for (const std::string& name : sc->replicas().Names()) {
    EXPECT_EQ(*sc->replicas().Get(name).value(),
              *(*sim)->source_catalog().Get(name).value())
        << name;
  }
  EXPECT_EQ(sc->ReplicaTupleCount(), 3 * 12 + 6 - 2 * [&] {
    int64_t deletes = 0;
    for (const Update& u : f.updates) {
      if (u.kind == UpdateKind::kDelete) {
        ++deletes;
      }
    }
    return deletes;
  }());
}

TEST(ScTest, StorageOverheadReported) {
  ChainFixture f = ChainFixture::Make(6, 0);
  std::unique_ptr<ViewMaintainer> maintainer =
      MustMakeMaintainer({.algorithm = Algorithm::kSc}, f.workload.view);
  const auto* sc = dynamic_cast<const EcaSc*>(maintainer.get());
  ASSERT_NE(sc, nullptr);
  Result<std::unique_ptr<Simulation>> sim =
      Simulation::Create(f.workload.initial, f.workload.view,
                         std::move(maintainer), SimulationOptions());
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sc->ReplicaTupleCount(), 36);  // 3 relations x C=12
}

TEST(EcaBatchTest, OneQueryPerBatch) {
  ChainFixture f = ChainFixture::Make(7, 9);
  SimulationOptions options;
  options.batch_size = 3;
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kEcaBatch, options);
  sim->SetUpdateScript(f.updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().notifications(), 3);
  EXPECT_EQ(sim->meter().query_messages(), 3);  // vs 9 for plain ECA
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(EcaBatchTest, CorrectUnderAdversarialInterleaving) {
  ChainFixture f = ChainFixture::Make(8, 9);
  SimulationOptions options;
  options.batch_size = 3;
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kEcaBatch, options);
  sim->SetUpdateScript(f.updates);
  WorstCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  ConsistencyReport r = CheckConsistency(sim->state_log());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST(EcaBatchTest, SequentialDefaultHandlesBatchesForPlainEca) {
  // Plain ECA receiving batched notifications processes them one by one
  // within the event and stays correct.
  ChainFixture f = ChainFixture::Make(9, 8);
  SimulationOptions options;
  options.batch_size = 4;
  std::unique_ptr<Simulation> sim = MustMakeSim(
      f.workload.initial, f.workload.view, Algorithm::kEca, options);
  sim->SetUpdateScript(f.updates);
  RandomPolicy policy(9);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  ConsistencyReport r = CheckConsistency(sim->state_log());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
  // Per-update queries: 8 of them even though only 2 notifications.
  EXPECT_EQ(sim->meter().query_messages(), 8);
  EXPECT_EQ(sim->meter().notifications(), 2);
}

}  // namespace
}  // namespace wvm
