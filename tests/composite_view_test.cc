// Tests for composite (union / difference) views and CompositeEca — the
// "more complex relational algebra expressions" extension of Section 7.
#include "query/composite_view.h"

#include <gtest/gtest.h>

#include "core/composite_eca.h"
#include "test_util.h"

namespace wvm {
namespace {

// Base relations: r1(W,X), r2(X,Y), r3(X,Z). Branch A = pi_W(r1 |x| r2),
// branch B = pi_W(r1 |x| r3): both project a single int column.
struct CompositeFixture {
  Catalog initial;
  ViewDefinitionPtr branch_a;
  ViewDefinitionPtr branch_b;

  static CompositeFixture Make() {
    CompositeFixture f;
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Schema s3 = Schema::Ints({"X", "Z"});
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r1", s1},
                                    Relation::FromTuples(
                                        s1, {Tuple::Ints({1, 2}),
                                             Tuple::Ints({4, 2}),
                                             Tuple::Ints({7, 3})}))
                    .ok());
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r2", s2},
                                    Relation::FromTuples(
                                        s2, {Tuple::Ints({2, 0})}))
                    .ok());
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r3", s3},
                                    Relation::FromTuples(
                                        s3, {Tuple::Ints({3, 0})}))
                    .ok());
    f.branch_a = *ViewDefinition::NaturalJoin(
        "A", {{"r1", s1}, {"r2", s2}}, {"W"});
    f.branch_b = *ViewDefinition::NaturalJoin(
        "B", {{"r1", s1}, {"r3", s3}}, {"W"});
    return f;
  }

  CompositeViewPtr Union() const {
    return *CompositeView::Create("U", {{branch_a, +1}, {branch_b, +1}});
  }
  CompositeViewPtr Difference() const {
    return *CompositeView::Create("D", {{branch_a, +1}, {branch_b, -1}});
  }
};

TEST(CompositeViewTest, CreateValidatesBranches) {
  CompositeFixture f = CompositeFixture::Make();
  EXPECT_FALSE(CompositeView::Create("E", {}).ok());
  EXPECT_FALSE(
      CompositeView::Create("E", {{f.branch_a, +2}}).ok());  // bad sign
  // Arity mismatch: a two-column branch against a one-column one.
  ViewDefinitionPtr wide = *ViewDefinition::NaturalJoin(
      "wide",
      {{"r1", Schema::Ints({"W", "X"})}, {"r2", Schema::Ints({"X", "Y"})}},
      {"W", "Y"});
  EXPECT_EQ(CompositeView::Create("E", {{f.branch_a, 1}, {wide, 1}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CompositeViewTest, UnionAllEvaluation) {
  CompositeFixture f = CompositeFixture::Make();
  Result<Relation> v = f.Union()->Evaluate(f.initial);
  ASSERT_TRUE(v.ok());
  // Branch A yields ([1],[4]); branch B yields ([7]); UNION ALL keeps all.
  EXPECT_EQ(*v, Relation::FromTuples(f.branch_a->output_schema(),
                                     {Tuple::Ints({1}), Tuple::Ints({4}),
                                      Tuple::Ints({7})}));
}

TEST(CompositeViewTest, UnionAllKeepsDuplicatesAcrossBranches) {
  CompositeFixture f = CompositeFixture::Make();
  Catalog state = f.initial.Clone();
  // Make W=1 derivable from both branches: add r3 tuple with X=2.
  ASSERT_TRUE(state.Apply(Update::Insert("r3", Tuple::Ints({2, 5}))).ok());
  Result<Relation> v = f.Union()->Evaluate(state);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->CountOf(Tuple::Ints({1})), 2);  // one per branch
}

TEST(CompositeViewTest, DifferenceEvaluation) {
  CompositeFixture f = CompositeFixture::Make();
  Catalog state = f.initial.Clone();
  ASSERT_TRUE(state.Apply(Update::Insert("r3", Tuple::Ints({2, 5}))).ok());
  Result<Relation> v = f.Difference()->Evaluate(state);
  ASSERT_TRUE(v.ok());
  // A = ([1],[4]); B = ([1],[4],[7]): difference = -[7] in Z-semantics.
  EXPECT_EQ(v->CountOf(Tuple::Ints({1})), 0);
  EXPECT_EQ(v->CountOf(Tuple::Ints({7})), -1);
}

TEST(CompositeViewTest, ReferencesChecksEveryBranch) {
  CompositeFixture f = CompositeFixture::Make();
  CompositeViewPtr u = f.Union();
  EXPECT_TRUE(u->References("r1"));
  EXPECT_TRUE(u->References("r3"));
  EXPECT_FALSE(u->References("r9"));
}

TEST(CompositeViewTest, ToStringShowsSigns) {
  CompositeFixture f = CompositeFixture::Make();
  std::string s = f.Difference()->ToString();
  EXPECT_NE(s.find(" - ["), std::string::npos);
}

// --- CompositeEca end-to-end ---------------------------------------------

std::unique_ptr<Simulation> MakeCompositeSim(const CompositeFixture& f,
                                             CompositeViewPtr composite) {
  SimulationOptions options;
  options.composite_view = composite;
  auto maintainer = std::make_unique<CompositeEca>(composite);
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      f.initial, composite->branches().front().view, std::move(maintainer),
      options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return std::move(*sim);
}

TEST(CompositeEcaTest, MaintainsUnionUnderConcurrency) {
  CompositeFixture f = CompositeFixture::Make();
  CompositeViewPtr u = f.Union();
  std::unique_ptr<Simulation> sim = MakeCompositeSim(f, u);
  sim->SetUpdateScript({Update::Insert("r2", Tuple::Ints({3, 9})),
                        Update::Insert("r1", Tuple::Ints({9, 3})),
                        Update::Delete("r3", Tuple::Ints({3, 0}))});
  WorstCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  Result<Relation> expected = u->Evaluate(sim->source_catalog());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

TEST(CompositeEcaTest, SharedRelationUpdateFansOutToBothBranches) {
  // r1 appears in both branches: one update must generate one query whose
  // terms cover both substitutions.
  CompositeFixture f = CompositeFixture::Make();
  std::unique_ptr<Simulation> sim = MakeCompositeSim(f, f.Union());
  sim->SetUpdateScript({Update::Insert("r1", Tuple::Ints({9, 2}))});
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().query_messages(), 1);
  EXPECT_EQ(sim->meter().query_terms(), 2);  // one term per branch
  EXPECT_EQ(sim->warehouse_view().CountOf(Tuple::Ints({9})), 1);
}

TEST(CompositeEcaTest, MaintainsDifferenceUnderConcurrency) {
  CompositeFixture f = CompositeFixture::Make();
  CompositeViewPtr d = f.Difference();
  std::unique_ptr<Simulation> sim = MakeCompositeSim(f, d);
  sim->SetUpdateScript({Update::Insert("r3", Tuple::Ints({2, 5})),
                        Update::Insert("r1", Tuple::Ints({9, 3})),
                        Update::Insert("r2", Tuple::Ints({3, 1}))});
  WorstCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  Result<Relation> expected = d->Evaluate(sim->source_catalog());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

class CompositeEcaSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompositeEcaSweep, StronglyConsistentOnRandomInterleavings) {
  CompositeFixture f = CompositeFixture::Make();
  CompositeViewPtr u = f.Union();
  std::unique_ptr<Simulation> sim = MakeCompositeSim(f, u);

  // Random mixed stream over the three relations, kept valid via a shadow.
  Random rng(GetParam());
  Catalog shadow = f.initial.Clone();
  std::vector<Update> updates;
  const char* names[] = {"r1", "r2", "r3"};
  for (int i = 0; i < 8; ++i) {
    const char* rel = names[rng.Uniform(3)];
    const Relation* live = shadow.Get(rel).value();
    Update u2;
    if (!live->IsEmpty() && rng.Bernoulli(1, 3)) {
      auto it = live->entries().begin();
      std::advance(it, rng.Uniform(live->NumDistinct()));
      u2 = Update::Delete(rel, it->first);
    } else {
      u2 = Update::Insert(rel, Tuple::Ints({rng.UniformRange(0, 9),
                                            rng.UniformRange(0, 9)}));
    }
    ASSERT_TRUE(shadow.Apply(u2).ok());
    updates.push_back(std::move(u2));
  }
  sim->SetUpdateScript(updates);
  RandomPolicy policy(GetParam());
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeEcaSweep,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace wvm
