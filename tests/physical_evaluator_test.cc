// Tests for the physical evaluator: answers must match the logical
// evaluator exactly, and I/O charges must reproduce the Appendix D plans
// (Scenario 1: 3min(J,I)+3 style index plans; Scenario 2: blocked nested
// loops in 3 buffers).
#include "source/physical_evaluator.h"

#include <gtest/gtest.h>

#include "analytic/cost_model.h"
#include "common/random.h"
#include "query/evaluator.h"
#include "source/source.h"
#include "workload/generator.h"

namespace wvm {
namespace {

// Example 6 fixture: C=100, J=4, K=20 => I=5, I'=3.
struct Fixture {
  Workload workload;
  Source source;
};

Fixture MakeFixture(PhysicalScenario scenario, int64_t c = 100,
                    int64_t j = 4) {
  Random rng(42);
  Result<Workload> w = MakeExample6Workload({c, j}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  PhysicalConfig config;
  config.scenario = scenario;
  config.tuples_per_block = 20;
  config.buffer_blocks = 3;
  std::vector<IndexSpec> indexes =
      scenario == PhysicalScenario::kIndexedMemory
          ? w->scenario1_indexes
          : std::vector<IndexSpec>{};
  Result<Source> source = Source::Create(w->initial, config, indexes);
  EXPECT_TRUE(source.ok()) << source.status();
  return Fixture{std::move(*w), std::move(*source)};
}

Term BoundTerm(const Workload& w, const Update& u) {
  std::optional<Term> t = Term::FromView(w.view).Substitute(u);
  EXPECT_TRUE(t.has_value());
  return *t;
}

int64_t TermIO(Fixture* f, const Term& t) {
  IOStats io;
  Result<Relation> r = EvaluateTermPhysical(
      t, f->source.storage(), f->source.config(), &io);
  EXPECT_TRUE(r.ok()) << r.status();
  return io.page_reads;
}

// --- Scenario 1 I/O plans (Appendix D.3.1) -----------------------------------

TEST(PhysicalScenario1Test, FullViewTermReadsEveryRelationOnce) {
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  EXPECT_EQ(TermIO(&f, Term::FromView(f.workload.view)), 15);  // 3I
}

TEST(PhysicalScenario1Test, BoundR1TermCostsOnePlusJ) {
  // Q1 = pi(t1 |x| r2 |x| r3): clustered X probe (1) + J probes into r3.
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 3})));
  EXPECT_EQ(TermIO(&f, t), 1 + 4);
}

TEST(PhysicalScenario1Test, BoundR2TermCostsTwo) {
  // Q2 = pi(r1 |x| t2 |x| r3): both probes keyed by the bound tuple itself.
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term t = BoundTerm(f.workload, Update::Insert("r2", Tuple::Ints({3, 7})));
  EXPECT_EQ(TermIO(&f, t), 2);
}

TEST(PhysicalScenario1Test, BoundR3TermCostsTwoJ) {
  // Q3 = pi(r1 |x| r2 |x| t3): non-clustered Y probe (J reads) then J
  // clustered X probes into r1.
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term t = BoundTerm(f.workload, Update::Insert("r3", Tuple::Ints({7, 5})));
  EXPECT_EQ(TermIO(&f, t), 2 * 4);
}

TEST(PhysicalScenario1Test, ThreeInsertBestCaseTotalMatchesPaper) {
  // IO_ECABest = 3min(J,I)+3 = 15 when J=4 < I=5 (the three plans above).
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  int64_t total =
      TermIO(&f, BoundTerm(f.workload,
                           Update::Insert("r1", Tuple::Ints({42, 3})))) +
      TermIO(&f, BoundTerm(f.workload,
                           Update::Insert("r2", Tuple::Ints({3, 7})))) +
      TermIO(&f, BoundTerm(f.workload,
                           Update::Insert("r3", Tuple::Ints({7, 5}))));
  analytic::Params p;
  EXPECT_EQ(total, static_cast<int64_t>(analytic::IoEcaBest3S1(p)));
}

TEST(PhysicalScenario1Test, DoublyBoundCompensationTermsCostOne) {
  // The extra terms of Q5/Q6 in Appendix D.3.1: two bound positions leave a
  // single clustered probe, cost 1.
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 3})));
  std::optional<Term> tt =
      t.Substitute(Update::Insert("r2", Tuple::Ints({3, 7})));
  ASSERT_TRUE(tt.has_value());  // unbound: r3, probed via Y clustered
  EXPECT_EQ(TermIO(&f, *tt), 1);
}

TEST(PhysicalScenario1Test, RejectsBoundTupleOfWrongArity) {
  // A bound tuple arrives with the query. One that does not have its
  // relation's arity is refused before any read, with the error the other
  // evaluators give.
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42})));
  IOStats io;
  Result<Relation> r =
      EvaluateTermPhysical(t, f.source.storage(), f.source.config(), &io);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(io.page_reads, 0);
}

TEST(PhysicalScenario1Test, DeadDoublyBoundTermStillPaysItsProbe) {
  // Section 6.3 charges a compensation term's probes even when its bound
  // tuples cannot join: r1 (42,3) and r2 (4,7) disagree on X, so the answer
  // is empty, yet the term still probes r3 on Y once. The bound operands
  // are seeded without join links and the full condition kills the row
  // only at the end.
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 3})));
  std::optional<Term> dead =
      t.Substitute(Update::Insert("r2", Tuple::Ints({4, 7})));
  ASSERT_TRUE(dead.has_value());
  IOStats io;
  Result<Relation> r = EvaluateTermPhysical(*dead, f.source.storage(),
                                            f.source.config(), &io);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->IsEmpty()) << r->ToString();
  EXPECT_EQ(io.page_reads, 1);
}

TEST(PhysicalScenario1Test, ProbeCostCountsScannedCopiesAsTuples) {
  // K = 2. r3 holds three copies of (2,1) (2 blocks) and joins the bound
  // r1 tuple by no edge, so it is scanned first, by cross product. r2 holds
  // two copies of each (3,y), y < 5 (5 blocks; J = 10 on X, 2 on Y). The
  // frontier then holds three tuples, one row of multiplicity 3, and the
  // r2.Y probe costs 3 * 2 = 6 > 5, so r2 is scanned too. Costing the
  // frontier by rows (1 * 2) would probe instead.
  Random rng(1);
  Result<Workload> w = MakeExample6Workload({/*c=*/10, /*j=*/2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();
  Relation r1(w->defs[0].schema);
  Relation r2(w->defs[1].schema);
  Relation r3(w->defs[2].schema);
  for (int64_t y = 0; y < 5; ++y) {
    r2.Insert(Tuple::Ints({3, y}), 2);
  }
  r3.Insert(Tuple::Ints({2, 1}), 3);
  Catalog initial;
  ASSERT_TRUE(initial.DefineWithData(w->defs[0], r1).ok());
  ASSERT_TRUE(initial.DefineWithData(w->defs[1], r2).ok());
  ASSERT_TRUE(initial.DefineWithData(w->defs[2], r3).ok());
  PhysicalConfig config;
  config.tuples_per_block = 2;
  Result<Source> source =
      Source::Create(initial, config, w->scenario1_indexes);
  ASSERT_TRUE(source.ok()) << source.status();

  Term t = *Term::FromView(w->view).Substitute(
      Update::Insert("r1", Tuple::Ints({42, 3})));
  IOStats io;
  io.record_plans = true;
  Result<Relation> r =
      EvaluateTermPhysical(t, source->storage(), config, &io);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(io.plan_log.size(), 2u);
  EXPECT_EQ(io.plan_log[0], "scan r3 (2 blocks), hash join");
  EXPECT_EQ(io.plan_log[1], "scan r2 (5 blocks), hash join");
  EXPECT_EQ(io.page_reads, 2 + 5);
  // W = 42 > Z = 1, once per copy of the joining r2 and r3 rows.
  EXPECT_EQ(r->NumDistinct(), 1u);
  EXPECT_EQ(r->CountOf(Tuple::Ints({42, 1})), 2 * 3);
}

TEST(PhysicalScenario1Test, PlannerFallsBackToScansWhenJExceedsI) {
  // With J = 50 > I = 5 index chains are more expensive than reading the
  // relations outright; the planner must pick scans (paper: 3I + 3 regime).
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory,
                          /*c=*/100, /*j=*/50);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 0})));
  // First expansion: probing r2 on X is 1 clustered probe with ~50 matches
  // across >= 3 blocks; scanning is 5. Either way the second expansion
  // must not pay 50 probes.
  EXPECT_LE(TermIO(&f, t), 3 + 2 * 5);
}

// --- Scenario 2 I/O (Appendix D.3.2) ------------------------------------------

TEST(PhysicalScenario2Test, FullViewTermIsCubicPlusOuterReads) {
  // Paper counts the inner rescans I^3; the operational count adds each
  // outer block load: I + I^2 + I^3 = 155 for I=5.
  Fixture f = MakeFixture(PhysicalScenario::kNestedLoopLimited);
  analytic::Params p;
  EXPECT_EQ(TermIO(&f, Term::FromView(f.workload.view)),
            static_cast<int64_t>(analytic::IoRecomputeS2Operational(p)));
}

TEST(PhysicalScenario2Test, OneBoundTermUsesDoubleBlockOuter) {
  // Two unbound relations, 3 buffers: outer in double blocks (I' windows),
  // inner rescanned per window: I*I' + I = 20 for I=5, I'=3.
  Fixture f = MakeFixture(PhysicalScenario::kNestedLoopLimited);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 3})));
  analytic::Params p;
  EXPECT_EQ(TermIO(&f, t),
            static_cast<int64_t>(analytic::IoTwoUnboundTermS2Operational(p)));
}

TEST(PhysicalScenario2Test, TwoBoundTermScansTheRemainingRelation) {
  Fixture f = MakeFixture(PhysicalScenario::kNestedLoopLimited);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 3})));
  std::optional<Term> tt =
      t.Substitute(Update::Insert("r2", Tuple::Ints({3, 7})));
  ASSERT_TRUE(tt.has_value());
  EXPECT_EQ(TermIO(&f, *tt), 5);  // I
}

TEST(PhysicalScenario2Test, FullyBoundTermCostsNothing) {
  Fixture f = MakeFixture(PhysicalScenario::kNestedLoopLimited);
  Term t = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({42, 3})));
  t = *t.Substitute(Update::Insert("r2", Tuple::Ints({3, 7})));
  t = *t.Substitute(Update::Insert("r3", Tuple::Ints({7, 5})));
  EXPECT_EQ(TermIO(&f, t), 0);
}

// --- Differential correctness -------------------------------------------------

class PhysicalDifferential
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PhysicalDifferential, PhysicalAnswerEqualsLogicalAnswer) {
  const PhysicalScenario scenario =
      std::get<0>(GetParam()) == 0 ? PhysicalScenario::kIndexedMemory
                                   : PhysicalScenario::kNestedLoopLimited;
  Random rng(std::get<1>(GetParam()));
  Result<Workload> w = MakeExample6Workload({/*c=*/40, /*j=*/4}, &rng);
  ASSERT_TRUE(w.ok());
  PhysicalConfig config;
  config.scenario = scenario;
  config.tuples_per_block = 8;
  std::vector<IndexSpec> indexes =
      scenario == PhysicalScenario::kIndexedMemory
          ? w->scenario1_indexes
          : std::vector<IndexSpec>{};
  Result<Source> source = Source::Create(w->initial, config, indexes);
  ASSERT_TRUE(source.ok()) << source.status();

  // A query mixing unbound, singly-bound and doubly-bound signed terms.
  Term full = Term::FromView(w->view);
  Term t1 = *full.Substitute(Update::Insert("r1", Tuple::Ints({3, 2})));
  Term t2 = *full.Substitute(Update::Delete("r2", Tuple::Ints({2, 2})));
  Term t12 = *t1.Substitute(Update::Insert("r2", Tuple::Ints({2, 9})));
  Query q(1, 1, {full, t1, t2.Negated(), t12});

  IOStats io;
  Result<AnswerMessage> physical = EvaluateQueryPhysical(
      q, source->storage(), config, &io);
  ASSERT_TRUE(physical.ok()) << physical.status();
  Result<Relation> logical = EvaluateQuery(q, w->initial);
  ASSERT_TRUE(logical.ok());
  EXPECT_EQ(physical->Sum(), *logical);
  EXPECT_GT(io.page_reads, 0);
  EXPECT_EQ(io.terms_evaluated, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PhysicalDifferential,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Range<uint64_t>(1, 13)));

// --- Source integration -------------------------------------------------------

TEST(SourceTest, ExecuteUpdateKeepsLogicalAndPhysicalInSync) {
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Update u = Update::Insert("r1", Tuple::Ints({7, 3}));
  u.id = 1;
  ASSERT_TRUE(f.source.ExecuteUpdate(u).ok());
  EXPECT_EQ(f.source.catalog().Get("r1").value()->CountOf(u.tuple), 1);
  EXPECT_EQ(f.source.storage().at("r1").NumRows(), 101u);

  Update d = Update::Delete("r1", Tuple::Ints({7, 3}));
  d.id = 2;
  ASSERT_TRUE(f.source.ExecuteUpdate(d).ok());
  EXPECT_EQ(f.source.storage().at("r1").NumRows(), 100u);
}

TEST(SourceTest, DeleteOfAbsentTupleFailsAtomically) {
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Update d = Update::Delete("r1", Tuple::Ints({-5, -5}));
  EXPECT_FALSE(f.source.ExecuteUpdate(d).ok());
}

TEST(SourceTest, Scenario2RejectsIndexes) {
  Random rng(1);
  Result<Workload> w = MakeExample6Workload({20, 4}, &rng);
  ASSERT_TRUE(w.ok());
  PhysicalConfig config;
  config.scenario = PhysicalScenario::kNestedLoopLimited;
  EXPECT_EQ(
      Source::Create(w->initial, config, w->scenario1_indexes).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(SourceTest, AnswersCarryPerTermTags) {
  Fixture f = MakeFixture(PhysicalScenario::kIndexedMemory);
  Term a = BoundTerm(f.workload, Update::Insert("r1", Tuple::Ints({1, 3})));
  a.set_delta_update_id(11);
  Term b = BoundTerm(f.workload, Update::Insert("r2", Tuple::Ints({3, 7})));
  b.set_delta_update_id(12);
  Query q(5, 12, {a, b});
  Result<AnswerMessage> ans = f.source.EvaluateQuery(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans->query_id, 5u);
  ASSERT_EQ(ans->term_delta_tags.size(), 2u);
  EXPECT_EQ(ans->term_delta_tags[0], 11u);
  EXPECT_EQ(ans->term_delta_tags[1], 12u);
}

}  // namespace
}  // namespace wvm
