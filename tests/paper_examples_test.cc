// Replays Examples 1-5 and 7-9 of the paper event by event and asserts the
// exact outcomes the paper derives — including the anomalies of the basic
// algorithm and the corrected results under ECA / ECA-Key.
#include <gtest/gtest.h>

#include "consistency_reference.h"
#include "test_util.h"

namespace wvm {
namespace {

TEST(PaperExamplesTest, Example1BasicIsCorrectWithoutConcurrency) {
  Result<PaperExample> ex = MakePaperExample1();
  ASSERT_TRUE(ex.ok()) << ex.status();
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  // Final view is ([1],[1]): duplicate retention keeps both derivations.
  EXPECT_EQ(sim->warehouse_view(), ex->expected_algorithm_final);
  EXPECT_EQ(sim->warehouse_view().CountOf(Tuple::Ints({1})), 2);
}

TEST(PaperExamplesTest, Example2InsertAnomalyReproduced) {
  Result<PaperExample> ex = MakePaperExample2();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  // The basic algorithm ends at ([1],[4],[4]) — the anomaly.
  EXPECT_EQ(sim->warehouse_view(), ex->expected_algorithm_final);
  EXPECT_NE(sim->warehouse_view(), ex->expected_correct_final);
  // And the checker flags it: not even weakly consistent.
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_FALSE(report.convergent);
  EXPECT_FALSE(report.weakly_consistent);
}

TEST(PaperExamplesTest, Example2IntermediateStatesMatchPaper) {
  Result<PaperExample> ex = MakePaperExample2();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  // Step 6 of the paper: after A1 the view is ([1],[4]); after A2 it is
  // ([1],[4],[4]).
  const std::vector<Relation> states =
      reference::Dedup(
          sim->state_log().warehouse_view_states.MaterializeAll());
  ASSERT_EQ(states.size(), 3u);  // empty -> ([1],[4]) -> ([1],[4],[4])
  EXPECT_TRUE(states[0].IsEmpty());
  EXPECT_EQ(states[1], Relation::FromTuples(ex->view->output_schema(),
                                            {Tuple::Ints({1}),
                                             Tuple::Ints({4})}));
}

TEST(PaperExamplesTest, Example3DeletionAnomalyReproduced) {
  Result<PaperExample> ex = MakePaperExample3();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  // Both answers are empty; the view never changes and keeps stale [1,3].
  EXPECT_EQ(sim->warehouse_view(), ex->expected_algorithm_final);
  EXPECT_FALSE(sim->warehouse_view().IsEmpty());
  EXPECT_TRUE(ex->expected_correct_final.IsEmpty());
  EXPECT_FALSE(CheckConsistency(sim->state_log()).convergent);
}

TEST(PaperExamplesTest, Example2FixedByEca) {
  Result<PaperExample> ex = MakePaperExample2();
  ASSERT_TRUE(ex.ok());
  ex->algorithm = "eca";
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
}

TEST(PaperExamplesTest, Example3FixedByEca) {
  Result<PaperExample> ex = MakePaperExample3();
  ASSERT_TRUE(ex.ok());
  ex->algorithm = "eca";
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_TRUE(sim->warehouse_view().IsEmpty());
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
}

TEST(PaperExamplesTest, Example4EcaThreeConcurrentInserts) {
  Result<PaperExample> ex = MakePaperExample4();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
  ConsistencyReport report = CheckConsistency(sim->state_log());
  EXPECT_TRUE(report.strongly_consistent) << report.ToString();
}

TEST(PaperExamplesTest, Example4ViewOnlyMovesOnceUqsDrains) {
  // ECA batches answers in COLLECT: the view must stay empty through A1 and
  // A2 and jump to ([1],[4]) only at A3 (when UQS empties).
  Result<PaperExample> ex = MakePaperExample4();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  const std::vector<Relation> states =
      reference::Dedup(
          sim->state_log().warehouse_view_states.MaterializeAll());
  ASSERT_EQ(states.size(), 2u);
  EXPECT_TRUE(states[0].IsEmpty());
  EXPECT_EQ(states[1], ex->expected_correct_final);
}

TEST(PaperExamplesTest, Example5EcaKey) {
  Result<PaperExample> ex = MakePaperExample5();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  // Final view ([3,3],[3,4]): the key-delete removed [1,3]/[1,4]-shaped
  // tuples locally and the duplicate [3,4] was suppressed.
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
  // Only the two inserts queried the source; the delete was local.
  EXPECT_EQ(sim->meter().query_messages(), 2);
}

TEST(PaperExamplesTest, Example7EcaInterleavedAnswers) {
  Result<PaperExample> ex = MakePaperExample7();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
}

TEST(PaperExamplesTest, Example8EcaDeletions) {
  Result<PaperExample> ex = MakePaperExample8();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_TRUE(sim->warehouse_view().IsEmpty());
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
}

TEST(PaperExamplesTest, Example9EcaDeleteTheneInsert) {
  Result<PaperExample> ex = MakePaperExample9();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim = RunPaperExample(*ex);
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
  EXPECT_EQ(sim->warehouse_view().CountOf(Tuple::Ints({1})), 1);
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
}

TEST(PaperExamplesTest, AllExamplesExpectationsAreSelfConsistent) {
  // The hardcoded expected_correct_final of every example must equal the
  // view evaluated at the final source state.
  Result<std::vector<PaperExample>> all = AllPaperExamples();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 8u);
  for (const PaperExample& ex : *all) {
    Catalog state = ex.initial.Clone();
    for (Update u : ex.updates) {
      ASSERT_TRUE(state.Apply(u).ok()) << ex.name;
    }
    Result<Relation> v = EvaluateView(ex.view, state);
    ASSERT_TRUE(v.ok()) << ex.name;
    EXPECT_EQ(*v, ex.expected_correct_final) << ex.name;
  }
}

}  // namespace
}  // namespace wvm
