// The self-maintenance decision procedure and runtime: static decisions
// from declared key/FK constraints, constraint-proven empty deltas, pruned
// complements with history-backed resolution, remote fallback on cold
// rows, differential equivalence with ECA, and crash recovery.
#include "core/self_maintain.h"

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "core/factory.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

Workload MustMakeFkStar(FkStarConfig config = FkStarConfig(),
                        uint64_t seed = 5) {
  Random rng(seed);
  Result<Workload> w = MakeFkStarWorkload(config, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(*w);
}

const SelfMaintainer& AsSelfMaintainer(const Simulation& sim) {
  const auto* m = dynamic_cast<const SelfMaintainer*>(&sim.maintainer());
  EXPECT_NE(m, nullptr);
  return *m;
}

// --- Static decision procedure ---------------------------------------------

TEST(SelfMaintainAnalysisTest, FkStarDecisionTable) {
  Workload w = MustMakeFkStar();
  Result<SelfMaintenanceAnalysis> a =
      SelfMaintenanceAnalysis::Analyze(*w.view, SelfMaintainOptions());
  ASSERT_TRUE(a.ok()) << a.status();
  // orders (fact): provable via the pruned dimension complements.
  EXPECT_EQ(a->DecisionFor(0, UpdateKind::kInsert),
            LocalDecision::kLocalComplement);
  EXPECT_EQ(a->DecisionFor(0, UpdateKind::kDelete),
            LocalDecision::kLocalComplement);
  // parts, suppliers (FK-protected dimensions): deltas provably empty.
  for (size_t dim : {size_t{1}, size_t{2}}) {
    EXPECT_EQ(a->DecisionFor(dim, UpdateKind::kInsert),
              LocalDecision::kLocalEmpty);
    EXPECT_EQ(a->DecisionFor(dim, UpdateKind::kDelete),
              LocalDecision::kLocalEmpty);
  }
  // The fact relation needs no complement; the dimensions get pruned ones.
  using Mode = SelfMaintenanceAnalysis::Complement::Mode;
  EXPECT_EQ(a->complement(0).mode, Mode::kNone);
  EXPECT_EQ(a->complement(1).mode, Mode::kPruned);
  EXPECT_EQ(a->complement(2).mode, Mode::kPruned);
  ASSERT_EQ(a->resolution_edges().size(), 2u);
}

TEST(SelfMaintainAnalysisTest, ComplementsOffLeavesConstraintProofsOnly) {
  Workload w = MustMakeFkStar();
  SelfMaintainOptions options;
  options.complements = false;
  Result<SelfMaintenanceAnalysis> a =
      SelfMaintenanceAnalysis::Analyze(*w.view, options);
  ASSERT_TRUE(a.ok()) << a.status();
  // Fact inserts must go remote; fact deletes keep the view-side key
  // delete (every declared key survives the projection).
  EXPECT_EQ(a->DecisionFor(0, UpdateKind::kInsert), LocalDecision::kRemote);
  EXPECT_EQ(a->DecisionFor(0, UpdateKind::kDelete),
            LocalDecision::kLocalKeyDelete);
  // The pure constraint proofs survive without any auxiliary state.
  EXPECT_EQ(a->DecisionFor(1, UpdateKind::kInsert),
            LocalDecision::kLocalEmpty);
  EXPECT_EQ(a->DecisionFor(2, UpdateKind::kDelete),
            LocalDecision::kLocalEmpty);
  using Mode = SelfMaintenanceAnalysis::Complement::Mode;
  EXPECT_EQ(a->complement(1).mode, Mode::kNone);
}

TEST(SelfMaintainAnalysisTest, UnconstrainedChainGetsFullComplements) {
  // Example 6 declares no keys or FKs: nothing is provably empty and
  // nothing can be pruned, but full complements still cover every term.
  Random rng(2);
  Result<Workload> w = MakeExample6Workload({/*c=*/8, /*j=*/2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<SelfMaintenanceAnalysis> a =
      SelfMaintenanceAnalysis::Analyze(*w->view, SelfMaintainOptions());
  ASSERT_TRUE(a.ok()) << a.status();
  using Mode = SelfMaintenanceAnalysis::Complement::Mode;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a->DecisionFor(i, UpdateKind::kInsert),
              LocalDecision::kLocalComplement);
    EXPECT_EQ(a->DecisionFor(i, UpdateKind::kDelete),
              LocalDecision::kLocalComplement);
    EXPECT_EQ(a->complement(i).mode, Mode::kFull);
  }
  EXPECT_TRUE(a->resolution_edges().empty());

  SelfMaintainOptions off;
  off.complements = false;
  Result<SelfMaintenanceAnalysis> degraded =
      SelfMaintenanceAnalysis::Analyze(*w->view, off);
  ASSERT_TRUE(degraded.ok());
  // No declared keys -> not even key deletes; everything ships.
  EXPECT_EQ(degraded->DecisionFor(0, UpdateKind::kDelete),
            LocalDecision::kRemote);
}

TEST(SelfMaintainAnalysisTest, SingleRelationViewIsLocalBound) {
  Schema schema({{"A", ValueType::kInt}, {"B", ValueType::kInt}});
  Result<ViewDefinitionPtr> view = ViewDefinition::Create(
      "V", {{"r", schema}}, {"A"},
      Predicate::Compare(Operand::Attr("A"), CompareOp::kGt,
                         Operand::ConstInt(3)));
  ASSERT_TRUE(view.ok()) << view.status();
  Result<SelfMaintenanceAnalysis> a =
      SelfMaintenanceAnalysis::Analyze(**view, SelfMaintainOptions());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->DecisionFor(0, UpdateKind::kInsert),
            LocalDecision::kLocalBound);
  EXPECT_EQ(a->DecisionFor(0, UpdateKind::kDelete),
            LocalDecision::kLocalBound);
}

// --- Runtime: local answering ----------------------------------------------

TEST(SelfMaintainerTest, FkStarAnswersEveryUpdateWithZeroSourceQueries) {
  FkStarConfig config;
  config.cold_parts = 0;  // every part referenced at init
  Workload w = MustMakeFkStar(config);
  Random rng(11);
  Result<std::vector<Update>> updates = MakeFkStarUpdates(w, 40, &rng);
  ASSERT_TRUE(updates.ok()) << updates.status();

  std::unique_ptr<Simulation> sim = MustMakeSim(
      w.initial, w.view, MaintainerSpec{Algorithm::kSelfMaintain});
  sim->SetUpdateScript(*updates);
  RandomPolicy policy(11);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());

  EXPECT_EQ(sim->meter().query_messages(), 0);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();

  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  EXPECT_EQ(m.remote_updates(), 0);
  EXPECT_EQ(m.local_updates(), 40);
  EXPECT_GT(m.constraint_empty_updates(), 0);  // dimension churn occurred
  EXPECT_GT(m.history_keys(), 0);
}

TEST(SelfMaintainerTest, DimensionUpdatesAreProvenEmptyWithoutEvaluation) {
  Workload w = MustMakeFkStar();
  std::unique_ptr<Simulation> sim = MustMakeSim(
      w.initial, w.view, MaintainerSpec{Algorithm::kSelfMaintain});
  // A fresh supplier, a fresh part referencing it, and a delete of a
  // never-referenced cold part: all FK-protected, all provably empty.
  const int64_t cold = FkStarConfig().parts - 1;
  sim->SetUpdateScript({
      Update::Insert("suppliers", Tuple::Ints({500, 1})),
      Update::Insert("parts", Tuple::Ints({600, 500})),
      Update::Delete("parts", Tuple::Ints({cold, cold % 10})),
  });
  RandomPolicy policy(3);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 0);
  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  EXPECT_EQ(m.constraint_empty_updates(), 3);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(SelfMaintainerTest, JournalBackfillResolvesFreshDimensionRows) {
  Workload w = MustMakeFkStar();
  std::unique_ptr<Simulation> sim = MustMakeSim(
      w.initial, w.view, MaintainerSpec{Algorithm::kSelfMaintain});
  // The fresh part is lazily absent from the pruned complement; the order
  // referencing it must be proven through the update history.
  sim->SetUpdateScript({
      Update::Insert("parts", Tuple::Ints({600, 0})),
      Update::Insert("orders", Tuple::Ints({900, 600})),
  });
  RandomPolicy policy(3);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 0);
  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  EXPECT_GE(m.journal_backfills(), 1);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(SelfMaintainerTest, BackfillWritesTheComplementInPlace) {
  Workload w = MustMakeFkStar();
  std::unique_ptr<Simulation> sim = MustMakeSim(
      w.initial, w.view, MaintainerSpec{Algorithm::kSelfMaintain});
  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  Result<const Relation*> parts = m.complements().Get("parts");
  ASSERT_TRUE(parts.ok()) << parts.status();
  const FlatCountsMap* storage = (*parts)->shared_entries().get();
  ASSERT_NE(storage, nullptr);
  sim->SetUpdateScript({
      Update::Insert("parts", Tuple::Ints({600, 0})),
      Update::Insert("orders", Tuple::Ints({900, 600})),
  });
  RandomPolicy policy(3);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  ASSERT_EQ(m.journal_backfills(), 1);
  // Nothing else shares the complement, so the backfill must write the
  // counts map in place: a clone would mean the resolution still pinned it.
  parts = m.complements().Get("parts");
  ASSERT_TRUE(parts.ok()) << parts.status();
  EXPECT_EQ((*parts)->shared_entries().get(), storage);
  EXPECT_EQ((*parts)->CountOf(Tuple::Ints({600, 0})), 1);
}

TEST(SelfMaintainerTest, ColdRowFallsBackToTheSource) {
  // A part that existed before the warehouse attached, is unreferenced at
  // init, and was never updated: its liveness is unprovable locally.
  FkStarConfig config;
  config.cold_parts = 2;
  Workload w = MustMakeFkStar(config);
  const int64_t cold_part = config.parts - 1;
  std::unique_ptr<Simulation> sim = MustMakeSim(
      w.initial, w.view, MaintainerSpec{Algorithm::kSelfMaintain});
  sim->SetUpdateScript(
      {Update::Insert("orders", Tuple::Ints({900, cold_part}))});
  RandomPolicy policy(3);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 1);
  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  EXPECT_EQ(m.fallback_updates(), 1);
  EXPECT_EQ(m.remote_updates(), 1);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(SelfMaintainerTest, PrunedComplementsHoldOnlyDimensionRows) {
  FkStarConfig config;
  Workload w = MustMakeFkStar(config);
  SelfMaintainer m(w.view);
  ASSERT_TRUE(m.Initialize(w.initial).ok());
  // No orders complement; parts complement misses the cold rows.
  EXPECT_EQ(m.aux_rows(),
            (config.parts - config.cold_parts) + config.suppliers);
  EXPECT_TRUE(m.aux_live());
}

TEST(SelfMaintainerTest, PrewarmsPairwiseCompensationMasks) {
  Workload w = MustMakeFkStar();
  SelfMaintainer m(w.view);
  ASSERT_TRUE(m.Initialize(w.initial).ok());
  // orders (position 0) is the local position: its compensation terms bind
  // {orders} x {pending update's position}.
  EXPECT_TRUE(w.view->HasCompiledPlanFor((1u << 0) | (1u << 1)));
  EXPECT_TRUE(w.view->HasCompiledPlanFor((1u << 0) | (1u << 2)));
}

TEST(SelfMaintainerTest, LoseVolatileStateDegradesToConstraintProofs) {
  Workload w = MustMakeFkStar();
  SelfMaintainer m(w.view);
  ASSERT_TRUE(m.Initialize(w.initial).ok());
  m.LoseVolatileState();
  EXPECT_FALSE(m.aux_live());
  EXPECT_EQ(m.aux_rows(), 0);
  EXPECT_EQ(m.history_keys(), 0);
}

TEST(SelfMaintainerTest, ComplementsOffKeepsKeyDeletesLocal) {
  Workload w = MustMakeFkStar();
  MaintainerSpec spec;
  spec.algorithm = Algorithm::kSelfMaintain;
  spec.self_maintain.complements = false;
  std::unique_ptr<Simulation> sim = MustMakeSim(w.initial, w.view, spec);
  // Delete of a live order (key delete, local) then an order insert
  // (remote: no complements to evaluate against).
  sim->SetUpdateScript({
      Update::Delete("orders", Tuple::Ints({0, 0})),
      Update::Insert("orders", Tuple::Ints({900, 1})),
  });
  RandomPolicy policy(3);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 1);
  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  EXPECT_EQ(m.key_delete_updates(), 1);
  EXPECT_EQ(m.remote_updates(), 1);
  EXPECT_EQ(m.fallback_updates(), 0);  // remote was the static decision
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

// --- Differential equivalence with ECA -------------------------------------

TEST(SelfMaintainerTest, FinalStatesMatchEcaAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FkStarConfig config;
    config.orders = 30;
    config.parts = 10;
    config.suppliers = 5;
    config.cold_parts = 2;
    Workload w = MustMakeFkStar(config, seed);
    Random rng(seed * 13 + 1);
    Result<std::vector<Update>> updates = MakeFkStarUpdates(w, 16, &rng);
    ASSERT_TRUE(updates.ok());

    Relation finals[2];
    int64_t queries[2] = {0, 0};
    const Algorithm algorithms[2] = {Algorithm::kEca,
                                     Algorithm::kSelfMaintain};
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<Simulation> sim =
          MustMakeSim(w.initial, w.view, MaintainerSpec{algorithms[i]});
      sim->SetUpdateScript(*updates);
      RandomPolicy policy(seed);
      ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
      ConsistencyReport report = CheckConsistency(sim->state_log());
      EXPECT_TRUE(report.strongly_consistent)
          << AlgorithmName(algorithms[i]) << " seed " << seed << ": "
          << report.ToString();
      finals[i] = sim->warehouse_view();
      queries[i] = sim->meter().query_messages();
      Result<Relation> expected = sim->SourceViewNow();
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(finals[i], *expected)
          << AlgorithmName(algorithms[i]) << " seed " << seed;
    }
    EXPECT_EQ(finals[0], finals[1]) << "seed " << seed;
    EXPECT_LT(queries[1], queries[0]) << "seed " << seed;
  }
}

TEST(SelfMaintainerTest, FullComplementsSelfMaintainUnconstrainedViews) {
  // Without any declared constraints the maintainer degenerates to
  // store-copies-style full complements: still zero source queries.
  Random rng(4);
  Result<Workload> w = MakeExample6Workload({/*c=*/10, /*j=*/2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 12, 0.35, &rng);
  ASSERT_TRUE(updates.ok());
  std::unique_ptr<Simulation> sim = MustMakeSim(
      w->initial, w->view, MaintainerSpec{Algorithm::kSelfMaintain});
  sim->SetUpdateScript(*updates);
  RandomPolicy policy(4);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 0);
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

// --- Crash recovery ---------------------------------------------------------

TEST(SelfMaintainerTest, RecoversAuxiliaryStateAcrossWarehouseCrashes) {
  Workload w = MustMakeFkStar();
  Random rng(9);
  Result<std::vector<Update>> updates = MakeFkStarUpdates(w, 12, &rng);
  ASSERT_TRUE(updates.ok());

  SimulationOptions options;
  options.fault.enabled = true;
  options.fault.reliable = true;
  options.fault.seed = 9;
  options.fault.retransmit_timeout_ticks = 6;
  options.recovery.enabled = true;
  options.recovery.checkpoint_every = 5;

  std::unique_ptr<Simulation> sim = MustMakeSim(
      w.initial, w.view, MaintainerSpec{Algorithm::kSelfMaintain}, options);
  sim->SetUpdateScript(*updates);
  RandomPolicy policy(9);
  int actions = 0;
  while (true) {
    SimAction action = policy.Next(*sim);
    if (action == SimAction::kNone) {
      break;
    }
    ASSERT_TRUE(sim->Step(action).ok());
    if (++actions == 7 || actions == 19) {
      ASSERT_TRUE(sim->CrashWarehouse().ok());
      ASSERT_TRUE(sim->RestartWarehouse().ok());
    }
  }
  const SelfMaintainer& m = AsSelfMaintainer(*sim);
  EXPECT_TRUE(m.aux_live());  // recovered restarts restored the complements
  Result<Relation> expected = sim->SourceViewNow();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

}  // namespace
}  // namespace wvm
