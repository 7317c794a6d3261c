// The correctness-level matrix of the paper, verified empirically: for
// every algorithm, sweep seeded random interleavings of mixed update
// streams and check the Section 3.1 levels. ECA and its variants must be
// strongly consistent on EVERY interleaving (Theorem B.1, Appendix C);
// LCA and SC must additionally be complete; the basic algorithm must be
// caught violating weak consistency on at least one interleaving. Every
// schedule is also judged by the full-state reference checker
// (CheckedConsistency), which must agree with the delta oracle on every
// flag, the violation text and every staleness lag.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/eca.h"
#include "core/eca_key.h"
#include "core/multi_view.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

struct SweepSetup {
  Workload workload;
  std::vector<Update> updates;
};

SweepSetup MakeChainSetup(uint64_t seed, int64_t k = 8) {
  Random rng(seed);
  Result<Workload> w = MakeExample6Workload({/*c=*/12, /*j=*/2}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*w, k, /*delete_fraction=*/0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  return SweepSetup{std::move(*w), std::move(*updates)};
}

SweepSetup MakeKeyedSetup(uint64_t seed, int64_t k = 8) {
  Random rng(seed);
  Result<Workload> w = MakeKeyedWorkload({/*c=*/12, /*j=*/3}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*w, k, /*delete_fraction=*/0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  return SweepSetup{std::move(*w), std::move(*updates)};
}

SweepSetup MakeFkStarSetup(uint64_t seed, int64_t k = 10) {
  Random rng(seed);
  Result<Workload> w =
      MakeFkStarWorkload({/*orders=*/24, /*parts=*/8, /*suppliers=*/4,
                          /*cold_parts=*/2},
                         &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates = MakeFkStarUpdates(*w, k, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  return SweepSetup{std::move(*w), std::move(*updates)};
}

class MatrixSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatrixSweep, EcaIsStronglyConsistent) {
  SweepSetup s = MakeChainSetup(GetParam());
  ConsistencyReport r = RunRandomized(s.workload.initial, s.workload.view,
                                      Algorithm::kEca, s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST_P(MatrixSweep, EcaKeyIsStronglyConsistent) {
  SweepSetup s = MakeKeyedSetup(GetParam());
  ConsistencyReport r =
      RunRandomized(s.workload.initial, s.workload.view, Algorithm::kEcaKey,
                    s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST_P(MatrixSweep, EcaLocalIsStronglyConsistentOnChain) {
  SweepSetup s = MakeChainSetup(GetParam());
  ConsistencyReport r =
      RunRandomized(s.workload.initial, s.workload.view, Algorithm::kEcaLocal,
                    s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST_P(MatrixSweep, EcaLocalIsStronglyConsistentOnKeyedView) {
  // Keyed view: deletes take the local key-delete path.
  SweepSetup s = MakeKeyedSetup(GetParam());
  ConsistencyReport r =
      RunRandomized(s.workload.initial, s.workload.view, Algorithm::kEcaLocal,
                    s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST_P(MatrixSweep, LcaIsComplete) {
  SweepSetup s = MakeChainSetup(GetParam());
  ConsistencyReport r = RunRandomized(s.workload.initial, s.workload.view,
                                      Algorithm::kLca, s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
  EXPECT_TRUE(r.complete) << r.ToString();
}

TEST_P(MatrixSweep, ScIsComplete) {
  SweepSetup s = MakeChainSetup(GetParam());
  ConsistencyReport r = RunRandomized(s.workload.initial, s.workload.view,
                                      Algorithm::kSc, s.updates, GetParam());
  EXPECT_TRUE(r.complete) << r.ToString();
}

TEST_P(MatrixSweep, RvIsStronglyConsistentWhenPeriodDividesK) {
  SweepSetup s = MakeChainSetup(GetParam());
  for (int period : {1, 2, 4}) {
    ConsistencyReport r =
        RunRandomized(s.workload.initial, s.workload.view, Algorithm::kRv,
                      s.updates, GetParam(), period);
    EXPECT_TRUE(r.strongly_consistent)
        << "period " << period << ": " << r.ToString();
  }
}

TEST_P(MatrixSweep, EcaNoCollectIsConvergent) {
  SweepSetup s = MakeChainSetup(GetParam());
  ConsistencyReport r =
      RunRandomized(s.workload.initial, s.workload.view,
                    Algorithm::kEcaNoCollect, s.updates, GetParam());
  EXPECT_TRUE(r.convergent) << r.ToString();
}

TEST_P(MatrixSweep, SelfMaintainerIsStronglyConsistentOnFkStar) {
  // Mixed local/remote processing: most updates answered from constraints
  // and complements, cold-part references falling back to the source.
  SweepSetup s = MakeFkStarSetup(GetParam());
  ConsistencyReport r =
      RunRandomized(s.workload.initial, s.workload.view,
                    Algorithm::kSelfMaintain, s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST_P(MatrixSweep, SelfMaintainerIsStronglyConsistentOnChain) {
  // No declared constraints: full complements answer everything locally.
  SweepSetup s = MakeChainSetup(GetParam());
  ConsistencyReport r =
      RunRandomized(s.workload.initial, s.workload.view,
                    Algorithm::kSelfMaintain, s.updates, GetParam());
  EXPECT_TRUE(r.strongly_consistent) << r.ToString();
}

TEST_P(MatrixSweep, SelfMaintainerFinalStateMatchesEca) {
  // The differential row of the matrix: same fk-star stream under ECA and
  // under SelfMaintainer, both finals equal to the source truth (and hence
  // to each other) on every seed.
  SweepSetup s = MakeFkStarSetup(GetParam());
  for (Algorithm algorithm : {Algorithm::kEca, Algorithm::kSelfMaintain}) {
    std::unique_ptr<Simulation> sim =
        MustMakeSim(s.workload.initial, s.workload.view, algorithm);
    sim->SetUpdateScript(s.updates);
    RandomPolicy policy(GetParam() * 17 + 3);
    ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    Result<Relation> expected = sim->SourceViewNow();
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(sim->warehouse_view(), *expected) << AlgorithmName(algorithm);
  }
}

TEST_P(MatrixSweep, EcaBatchIsStronglyConsistent) {
  SweepSetup s = MakeChainSetup(GetParam());
  for (int batch : {2, 3}) {
    ConsistencyReport r =
        RunRandomized(s.workload.initial, s.workload.view,
                      Algorithm::kEcaBatch, s.updates, GetParam(),
                      /*rv_period=*/1, /*batch_size=*/batch);
    EXPECT_TRUE(r.strongly_consistent)
        << "batch " << batch << ": " << r.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixSweep,
                         ::testing::Range<uint64_t>(1, 26));

// --- Multi-view shared maintenance -----------------------------------------
// Five children of mixed algorithms (ECA and ECA-Key) over five views of
// the keyed workload — two pairs structurally identical across children —
// maintained through one warehouse, on clean and on faulty (reliable)
// transports. Shared maintenance on must be tuple-for-tuple identical to
// the independent-children baseline for EVERY child, and child 0's state
// sequence must stay strongly consistent either way.

struct MultiViewMatrixSetup {
  Workload workload;
  std::vector<ViewDefinitionPtr> views;
  std::vector<Update> updates;
};

MultiViewMatrixSetup MakeMultiViewSetup(uint64_t seed) {
  Random rng(seed);
  Result<Workload> w = MakeKeyedWorkload({/*c=*/12, /*j=*/3}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*w, /*k=*/8, /*delete_fraction=*/0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  MultiViewMatrixSetup s{std::move(*w), {}, std::move(*updates)};
  s.views = {
      s.workload.view,  // EcaKey
      // Structural twin of the keyed view, owned by a different object.
      *ViewDefinition::NaturalJoin("V1", s.workload.defs, {"W", "Y"}),  // Eca
      *ViewDefinition::NaturalJoin("V2", s.workload.defs, {"W"}),      // Eca
      *ViewDefinition::NaturalJoin("V3", s.workload.defs,
                                   {"W", "Y"}),  // EcaKey twin
      *ViewDefinition::NaturalJoin("V4", s.workload.defs, {"X", "Y"}),  // Eca
  };
  return s;
}

std::unique_ptr<MultiViewWarehouse> MakeMixedChildren(
    const MultiViewMatrixSetup& s, bool dedup) {
  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<EcaKey>(s.views[0]));
  children.push_back(std::make_unique<Eca>(s.views[1]));
  children.push_back(std::make_unique<Eca>(s.views[2]));
  children.push_back(std::make_unique<EcaKey>(s.views[3]));
  children.push_back(std::make_unique<Eca>(s.views[4]));
  MultiViewOptions options;
  options.dedup = dedup;
  return std::make_unique<MultiViewWarehouse>(std::move(children), options);
}

class MultiViewMatrix : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiViewMatrix, SharedMaintenanceMatchesIndependentChildren) {
  const uint64_t seed = GetParam();
  MultiViewMatrixSetup s = MakeMultiViewSetup(seed);
  for (bool faulty : {false, true}) {
    std::vector<Relation> baseline;
    int64_t baseline_messages = 0;
    for (bool dedup : {false, true}) {
      auto multi_owner = MakeMixedChildren(s, dedup);
      MultiViewWarehouse* multi = multi_owner.get();
      SimulationOptions options;
      if (faulty) {
        options.fault.enabled = true;
        options.fault.reliable = true;
        options.fault.seed = seed;
        options.fault.retransmit_timeout_ticks = 6;
        options.fault.drop_rate = 0.25;
        options.fault.duplicate_rate = 0.2;
        options.fault.reorder_rate = 0.3;
        options.fault.max_delay_ticks = 2;
      }
      Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
          s.workload.initial, s.views[0], std::move(multi_owner), options);
      ASSERT_TRUE(sim.ok()) << sim.status();
      (*sim)->SetUpdateScript(s.updates);
      RandomPolicy policy(seed * 31 + faulty);
      ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
      ASSERT_TRUE(multi->IsQuiescent());
      ConsistencyReport report = CheckedConsistency((*sim)->state_log());
      EXPECT_TRUE(report.strongly_consistent)
          << "dedup=" << dedup << " faulty=" << faulty << ": "
          << report.ToString();
      std::vector<Relation> finals;
      for (size_t i = 0; i < s.views.size(); ++i) {
        Result<Relation> expected =
            EvaluateView(s.views[i], (*sim)->source_catalog());
        ASSERT_TRUE(expected.ok());
        EXPECT_EQ(multi->child(i).view_contents(), *expected)
            << "child " << i << " dedup=" << dedup << " faulty=" << faulty;
        finals.push_back(multi->child(i).view_contents());
      }
      if (!dedup) {
        baseline = std::move(finals);
        baseline_messages = (*sim)->meter().query_messages();
      } else {
        for (size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_EQ(finals[i], baseline[i])
              << "child " << i << " diverges under shared maintenance"
              << " (faulty=" << faulty << ")";
        }
        EXPECT_LE((*sim)->meter().query_messages(), baseline_messages);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiViewMatrix,
                         ::testing::Range<uint64_t>(1, 13));

TEST(MatrixSummaryTest, BasicViolatesCorrectnessSomewhere) {
  // The anomaly must actually occur in the sweep: across seeds, the basic
  // algorithm fails convergence (and usually weak consistency) at least
  // once. (Any single interleaving may happen to be benign.)
  int violations = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SweepSetup s = MakeChainSetup(seed);
    ConsistencyReport r = RunRandomized(s.workload.initial, s.workload.view,
                                        Algorithm::kBasic, s.updates, seed);
    if (!r.strongly_consistent) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0);
}

TEST(MatrixSummaryTest, EcaWithoutCompensationViolatesSomewhere) {
  int violations = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SweepSetup s = MakeChainSetup(seed);
    ConsistencyReport r =
        RunRandomized(s.workload.initial, s.workload.view,
                      Algorithm::kEcaNoCompensation, s.updates, seed);
    if (!r.convergent) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0);
}

TEST(MatrixSummaryTest, EcaWithoutCollectLosesConsistencySomewhere) {
  // Convergent-but-not-consistent is precisely what Section 5.2 predicts
  // for installing answers early.
  int inconsistent = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SweepSetup s = MakeChainSetup(seed);
    ConsistencyReport r =
        RunRandomized(s.workload.initial, s.workload.view,
                      Algorithm::kEcaNoCollect, s.updates, seed);
    EXPECT_TRUE(r.convergent) << r.ToString();
    if (!r.consistent) {
      ++inconsistent;
    }
  }
  EXPECT_GT(inconsistent, 0);
}

TEST(MatrixSummaryTest, EcaIsNotCompleteInGeneral) {
  // ECA skips states while batching in COLLECT; under adversarial
  // (worst-case) interleavings completeness must fail for some seed, which
  // is why the paper introduces LCA.
  int incomplete = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SweepSetup s = MakeChainSetup(seed);
    SimulationOptions options;
    std::unique_ptr<Simulation> sim =
        MustMakeSim(s.workload.initial, s.workload.view, Algorithm::kEca,
                    options);
    sim->SetUpdateScript(s.updates);
    WorstCasePolicy policy;
    ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    ConsistencyReport r = CheckedConsistency(sim->state_log());
    EXPECT_TRUE(r.strongly_consistent) << r.ToString();
    if (!r.complete) {
      ++incomplete;
    }
  }
  EXPECT_GT(incomplete, 0);
}

}  // namespace
}  // namespace wvm
