// Tests for the multi-source extension (Section 7 future work). The
// empirical claims, mirroring why the authors' follow-up work (Strobe) was
// needed — and the repair available inside the paper's constraints:
//
//   * confined to one source, MsEca behaves like single-source ECA;
//   * two-source views stay strongly consistent (FIFO barrier);
//   * three-source chains break MsEca (even convergence) because a
//     compensating term needs the compensated query's own per-source
//     snapshots, which a stateless source cannot replay;
//   * MsSc always converges but mixes per-source prefixes (weak
//     consistency fails);
//   * MsEcaSnapshot — compensation applied on the pending query's own
//     snapshot — is strongly consistent for any number of sources.
#include "multisource/ms_simulation.h"

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "consistency/staleness.h"
#include "multisource/ms_eca.h"
#include "multisource/ms_eca_snapshot.h"
#include "multisource/ms_sc.h"

namespace wvm {
namespace {

// Source A owns r1(W,X); source B owns r2(X,Y). View pi_{W,Y}(r1 |x| r2).
struct TwoSourceFixture {
  std::vector<Catalog> per_source;
  ViewDefinitionPtr view;

  static TwoSourceFixture Make() {
    TwoSourceFixture f;
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Catalog a;
    EXPECT_TRUE(a.DefineWithData({"r1", s1},
                                 Relation::FromTuples(
                                     s1, {Tuple::Ints({1, 2})}))
                    .ok());
    Catalog b;
    EXPECT_TRUE(b.DefineWithData({"r2", s2},
                                 Relation::FromTuples(
                                     s2, {Tuple::Ints({2, 5})}))
                    .ok());
    f.per_source = {std::move(a), std::move(b)};
    f.view = *ViewDefinition::NaturalJoin("V",
                                          {{"r1", s1}, {"r2", s2}},
                                          {"W", "Y"});
    return f;
  }
};

template <typename Maintainer>
std::unique_ptr<MsSimulation> MakeSim(const TwoSourceFixture& f) {
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<Maintainer>(f.view));
  EXPECT_TRUE(sim.ok()) << sim.status();
  return std::move(*sim);
}

TEST(MsSimulationTest, RejectsDuplicateRelationOwnership) {
  TwoSourceFixture f = TwoSourceFixture::Make();
  std::vector<Catalog> bad = {f.per_source[0].Clone(),
                              f.per_source[0].Clone()};
  EXPECT_EQ(MsSimulation::Create(bad, f.view,
                                 std::make_unique<MsEca>(f.view))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MsSimulationTest, InitialStatesAgree) {
  TwoSourceFixture f = TwoSourceFixture::Make();
  std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
  EXPECT_EQ(sim->warehouse_view(), *sim->GlobalViewNow());
  EXPECT_EQ(sim->warehouse_view().CountOf(Tuple::Ints({1, 5})), 1);
}

TEST(MsEcaTest, SingleSourceStreamIsStronglyConsistent) {
  // All updates confined to source B: per-source FIFO restores the
  // single-source guarantees.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
    ASSERT_TRUE(sim->SetUpdateScript(
                       1, {Update::Insert("r2", Tuple::Ints({2, 6})),
                           Update::Delete("r2", Tuple::Ints({2, 5})),
                           Update::Insert("r2", Tuple::Ints({2, 7}))})
                    .ok());
    ASSERT_TRUE(sim->RunRandom(seed).ok());
    ConsistencyReport report = CheckConsistency(sim->state_log());
    EXPECT_TRUE(report.strongly_consistent)
        << "seed " << seed << ": " << report.ToString();
  }
}

TEST(MsEcaTest, CrossSourceStreamsConverge) {
  // Updates race across sources: the final view must still equal the view
  // over the merged final state, on every interleaving.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
    ASSERT_TRUE(sim->SetUpdateScript(
                       0, {Update::Insert("r1", Tuple::Ints({4, 2})),
                           Update::Delete("r1", Tuple::Ints({1, 2})),
                           Update::Insert("r1", Tuple::Ints({8, 3}))})
                    .ok());
    ASSERT_TRUE(sim->SetUpdateScript(
                       1, {Update::Insert("r2", Tuple::Ints({2, 9})),
                           Update::Insert("r2", Tuple::Ints({3, 4})),
                           Update::Delete("r2", Tuple::Ints({2, 5}))})
                    .ok());
    ASSERT_TRUE(sim->RunRandom(seed).ok());
    EXPECT_TRUE(sim->maintainer().IsQuiescent());
    Result<Relation> global = sim->GlobalViewNow();
    ASSERT_TRUE(global.ok());
    EXPECT_EQ(sim->warehouse_view(), *global) << "seed " << seed;
    EXPECT_TRUE(CheckConsistency(sim->state_log()).convergent);
  }
}

TEST(MsEcaTest, TwoSourcesStayStronglyConsistent) {
  // With two sources and one unbound relation per query term, every
  // answer rides the FIFO of the only source it visits, behind that
  // source's pending notifications — a de-facto synchronization barrier
  // that preserves strong consistency.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
    ASSERT_TRUE(sim->SetUpdateScript(
                       0, {Update::Insert("r1", Tuple::Ints({4, 2})),
                           Update::Insert("r1", Tuple::Ints({6, 2}))})
                    .ok());
    ASSERT_TRUE(sim->SetUpdateScript(
                       1, {Update::Insert("r2", Tuple::Ints({2, 8})),
                           Update::Delete("r2", Tuple::Ints({2, 5}))})
                    .ok());
    ASSERT_TRUE(sim->RunRandom(seed).ok());
    ConsistencyReport report = CheckConsistency(sim->state_log());
    EXPECT_TRUE(report.strongly_consistent)
        << "seed " << seed << ": " << report.ToString();
  }
}

// Three sources, chain view r1@A |x| r2@B |x| r3@C: every query term spans
// two other sources, so its value mixes snapshots taken at different
// states. Per-source compensation cannot repair the skewed cross
// products.
struct ThreeSourceFixture {
  std::vector<Catalog> per_source;
  ViewDefinitionPtr view;

  static ThreeSourceFixture Make() {
    ThreeSourceFixture f;
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Schema s3 = Schema::Ints({"Y", "Z"});
    Catalog a, b, c;
    EXPECT_TRUE(a.DefineWithData({"r1", s1},
                                 Relation::FromTuples(
                                     s1, {Tuple::Ints({1, 2}),
                                          Tuple::Ints({3, 2})}))
                    .ok());
    EXPECT_TRUE(b.DefineWithData({"r2", s2},
                                 Relation::FromTuples(
                                     s2, {Tuple::Ints({2, 5})}))
                    .ok());
    EXPECT_TRUE(c.DefineWithData({"r3", s3},
                                 Relation::FromTuples(
                                     s3, {Tuple::Ints({5, 7})}))
                    .ok());
    f.per_source = {std::move(a), std::move(b), std::move(c)};
    f.view = *ViewDefinition::NaturalJoin(
        "V", {{"r1", s1}, {"r2", s2}, {"r3", s3}}, {"W", "Z"});
    return f;
  }
};

TEST(MsEcaTest, ThreeSourceMixedSnapshotsBreakEvenConvergence) {
  // The new anomaly class the paper's Section 7 anticipates: some seeds
  // must leave the view permanently wrong — this is why multi-source
  // maintenance needed the follow-up (Strobe-style) machinery.
  int convergence_violations = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ThreeSourceFixture f = ThreeSourceFixture::Make();
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEca>(f.view));
    ASSERT_TRUE(sim.ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        0, {Update::Insert("r1", Tuple::Ints({9, 2})),
                            Update::Delete("r1", Tuple::Ints({1, 2}))})
                    .ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        1, {Update::Insert("r2", Tuple::Ints({2, 6})),
                            Update::Delete("r2", Tuple::Ints({2, 5}))})
                    .ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        2, {Update::Insert("r3", Tuple::Ints({6, 1})),
                            Update::Delete("r3", Tuple::Ints({5, 7}))})
                    .ok());
    ASSERT_TRUE((*sim)->RunRandom(seed).ok());
    if (!CheckConsistency((*sim)->state_log()).convergent) {
      ++convergence_violations;
    }
  }
  EXPECT_GT(convergence_violations, 0);
}

TEST(MsEcaSnapshotTest, StronglyConsistentWhereNaiveMsEcaFails) {
  // The constructive fix: compensation applied on the pending query's OWN
  // snapshot (see ms_eca_snapshot.h). Over the exact configuration where
  // MsEca loses convergence on a substantial fraction of seeds, the
  // snapshot variant must be strongly consistent on EVERY one.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ThreeSourceFixture f = ThreeSourceFixture::Make();
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view));
    ASSERT_TRUE(sim.ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        0, {Update::Insert("r1", Tuple::Ints({9, 2})),
                            Update::Delete("r1", Tuple::Ints({1, 2}))})
                    .ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        1, {Update::Insert("r2", Tuple::Ints({2, 6})),
                            Update::Delete("r2", Tuple::Ints({2, 5}))})
                    .ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        2, {Update::Insert("r3", Tuple::Ints({6, 1})),
                            Update::Delete("r3", Tuple::Ints({5, 7}))})
                    .ok());
    ASSERT_TRUE((*sim)->RunRandom(seed).ok());
    ConsistencyReport report = CheckConsistency((*sim)->state_log());
    EXPECT_TRUE(report.strongly_consistent)
        << "seed " << seed << ": " << report.ToString();
    EXPECT_TRUE((*sim)->maintainer().IsQuiescent());
  }
}

TEST(MsEcaSnapshotTest, TwoSourceBehaviorUnchanged) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view));
    ASSERT_TRUE(sim.ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        0, {Update::Insert("r1", Tuple::Ints({4, 2})),
                            Update::Delete("r1", Tuple::Ints({1, 2}))})
                    .ok());
    ASSERT_TRUE((*sim)
                    ->SetUpdateScript(
                        1, {Update::Insert("r2", Tuple::Ints({2, 8})),
                            Update::Delete("r2", Tuple::Ints({2, 5}))})
                    .ok());
    ASSERT_TRUE((*sim)->RunRandom(seed).ok());
    EXPECT_TRUE(CheckConsistency((*sim)->state_log()).strongly_consistent)
        << "seed " << seed;
  }
}

TEST(MsEcaTest, ThreeSourcesFineWithoutCrossSourceRaces) {
  // The same three-source system is perfectly well behaved when each
  // update's round trip drains before the next update anywhere.
  ThreeSourceFixture f = ThreeSourceFixture::Make();
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<MsEca>(f.view));
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(0,
                                    {Update::Insert("r1", Tuple::Ints({9, 2}))})
                  .ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(1,
                                    {Update::Insert("r2", Tuple::Ints({2, 6}))})
                  .ok());
  ASSERT_TRUE((*sim)
                  ->SetUpdateScript(2,
                                    {Update::Insert("r3", Tuple::Ints({6, 1}))})
                  .ok());
  ASSERT_TRUE((*sim)->RunBestCase().ok());
  ConsistencyReport report = CheckConsistency((*sim)->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

TEST(MsScTest, ConvergesWithZeroQueries) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    std::unique_ptr<MsSimulation> sim = MakeSim<MsSc>(f);
    ASSERT_TRUE(sim->SetUpdateScript(
                       0, {Update::Insert("r1", Tuple::Ints({4, 2})),
                           Update::Delete("r1", Tuple::Ints({1, 2}))})
                    .ok());
    ASSERT_TRUE(sim->SetUpdateScript(
                       1, {Update::Insert("r2", Tuple::Ints({2, 9}))})
                    .ok());
    ASSERT_TRUE(sim->RunRandom(seed).ok());
    EXPECT_EQ(sim->fragment_requests(), 0);
    EXPECT_EQ(sim->warehouse_view(), *sim->GlobalViewNow());
  }
}

TEST(MsScTest, AlsoOnlyConvergentAcrossSources) {
  // Store-copies does not escape the per-source-prefix problem either:
  // consistency against the GLOBAL order can fail when sources race.
  int violations = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    std::unique_ptr<MsSimulation> sim = MakeSim<MsSc>(f);
    ASSERT_TRUE(sim->SetUpdateScript(
                       0, {Update::Delete("r1", Tuple::Ints({1, 2}))})
                    .ok());
    ASSERT_TRUE(sim->SetUpdateScript(
                       1, {Update::Insert("r2", Tuple::Ints({2, 8}))})
                    .ok());
    ASSERT_TRUE(sim->RunRandom(seed).ok());
    ConsistencyReport report = CheckConsistency(sim->state_log());
    EXPECT_TRUE(report.convergent);
    if (!report.weakly_consistent) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0);
}

TEST(MsEcaTest, BestCaseMatchesGlobalSequence) {
  // With every round trip completing before the next update anywhere,
  // even the multi-source warehouse tracks the global sequence.
  TwoSourceFixture f = TwoSourceFixture::Make();
  std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
  ASSERT_TRUE(sim->SetUpdateScript(
                     0, {Update::Insert("r1", Tuple::Ints({4, 2}))})
                  .ok());
  ASSERT_TRUE(sim->SetUpdateScript(
                     1, {Update::Insert("r2", Tuple::Ints({2, 9}))})
                  .ok());
  ASSERT_TRUE(sim->RunBestCase().ok());
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

TEST(MsSimulationTest, StalenessCountsEventsOnOneClock) {
  // Every state is stamped from the simulation's event counter, so an
  // update at source A becomes visible only after the fragment round trip
  // through source B: S_up (clock 1), W_up sends the request (2), B
  // answers (3), W_ans installs (4) — three events of lag.
  TwoSourceFixture f = TwoSourceFixture::Make();
  std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
  ASSERT_TRUE(sim->SetUpdateScript(
                     0, {Update::Insert("r1", Tuple::Ints({4, 2}))})
                  .ok());
  ASSERT_TRUE(sim->StepSourceUpdate(0).ok());
  ASSERT_TRUE(sim->StepWarehouse(0).ok());
  ASSERT_TRUE(sim->StepSourceAnswer(1).ok());
  ASSERT_TRUE(sim->StepWarehouse(1).ok());
  ASSERT_TRUE(sim->Quiescent());
  const StalenessReport r = MeasureStaleness(sim->state_log());
  EXPECT_EQ(r.lags, (std::vector<int64_t>{0, 3}));
  EXPECT_EQ(r.max_lag, 3);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(MsEcaTest, FragmentTrafficIsMetered) {
  TwoSourceFixture f = TwoSourceFixture::Make();
  std::unique_ptr<MsSimulation> sim = MakeSim<MsEca>(f);
  ASSERT_TRUE(sim->SetUpdateScript(
                     0, {Update::Insert("r1", Tuple::Ints({4, 2}))})
                  .ok());
  ASSERT_TRUE(sim->RunBestCase().ok());
  // One update to r1 needs r2's fragment from source B only.
  EXPECT_EQ(sim->fragment_requests(), 1);
  EXPECT_GT(sim->fragment_tuples(), 0);
}

}  // namespace
}  // namespace wvm
