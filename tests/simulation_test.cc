// Tests for the event simulator: FIFO delivery, atomic events, enabled
// actions, policies, metering, state logging, tracing, and batching.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace wvm {
namespace {

std::unique_ptr<Simulation> Example2Sim(Algorithm a,
                                        SimulationOptions options = {}) {
  Result<PaperExample> ex = MakePaperExample2();
  EXPECT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim =
      MustMakeSim(ex->initial, ex->view, a, options);
  sim->SetUpdateScript(ex->updates);
  return sim;
}

TEST(SimulationTest, InitialStatesRecorded) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  ASSERT_EQ(sim->state_log().source_view_states.size(), 1u);
  ASSERT_EQ(sim->state_log().warehouse_view_states.size(), 1u);
  // V[ws_0] = V[ss_0].
  EXPECT_EQ(sim->state_log().source_view_states.Materialize(0),
            sim->state_log().warehouse_view_states.Materialize(0));
}

TEST(SimulationTest, EnabledActionsEvolveCorrectly) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  EXPECT_TRUE(sim->CanSourceUpdate());
  EXPECT_FALSE(sim->CanSourceAnswer());   // no queries yet
  EXPECT_FALSE(sim->CanWarehouseStep());  // no messages yet
  ASSERT_TRUE(sim->StepSourceUpdate().ok());
  EXPECT_TRUE(sim->CanWarehouseStep());  // notification waiting
  ASSERT_TRUE(sim->StepWarehouse().ok());
  EXPECT_TRUE(sim->CanSourceAnswer());  // query waiting
  ASSERT_TRUE(sim->StepSourceAnswer().ok());
  ASSERT_TRUE(sim->StepWarehouse().ok());
  EXPECT_TRUE(sim->CanSourceUpdate());
  EXPECT_FALSE(sim->Quiescent());
}

TEST(SimulationTest, SteppingDisabledActionsFails) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  EXPECT_EQ(sim->StepSourceAnswer().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim->StepWarehouse().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim->Step(SimAction::kNone).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SimulationTest, MessagesDeliveredInOrderAcrossKinds) {
  // The single source->warehouse stream interleaves notifications and
  // answers in send order: after [U1, Q1-answer, U2], the warehouse must
  // see U1, A1, U2 in exactly that order.
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  ASSERT_TRUE(sim->StepSourceUpdate().ok());  // U1 notification queued
  ASSERT_TRUE(sim->StepWarehouse().ok());     // consume U1, Q1 queued
  ASSERT_TRUE(sim->StepSourceAnswer().ok());  // A1 queued
  ASSERT_TRUE(sim->StepSourceUpdate().ok());  // U2 notification queued
  // The warehouse now must receive A1 before U2; under ECA that means no
  // compensation is added to Q2.
  ASSERT_TRUE(sim->StepWarehouse().ok());  // A1 -> UQS empties
  ASSERT_TRUE(sim->StepWarehouse().ok());  // U2 -> Q2 has 1 term
  EXPECT_EQ(sim->meter().query_terms(), 2);  // 1 (Q1) + 1 (Q2)
}

TEST(SimulationTest, RunToQuiescenceDrainsEverything) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_TRUE(sim->Quiescent());
  EXPECT_EQ(sim->updates_remaining(), 0u);
  EXPECT_EQ(sim->updates_executed(), 2u);
  EXPECT_TRUE(sim->maintainer().IsQuiescent());
}

TEST(SimulationTest, WorstCasePolicyExecutesAllUpdatesFirst) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  WorstCasePolicy policy;
  // First two choices must be source updates.
  EXPECT_EQ(policy.Next(*sim), SimAction::kSourceUpdate);
  ASSERT_TRUE(sim->StepSourceUpdate().ok());
  EXPECT_EQ(policy.Next(*sim), SimAction::kSourceUpdate);
  ASSERT_TRUE(sim->StepSourceUpdate().ok());
  EXPECT_EQ(policy.Next(*sim), SimAction::kWarehouseStep);
}

TEST(SimulationTest, MeterCountsMessagesAndBytes) {
  SimulationOptions options;
  options.bytes_per_tuple = 4;
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca, options);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  // 2 updates -> 2 queries + 2 answers = 4 messages (M_ECA = 2k), plus 2
  // notifications (not part of M).
  EXPECT_EQ(sim->meter().messages(), 4);
  EXPECT_EQ(sim->meter().notifications(), 2);
  // Best case: A1 = ([1]) (1 tuple), A2 = ([4]) (1 tuple) -> 8 bytes at
  // S=4.
  EXPECT_EQ(sim->meter().bytes_transferred(), 8);
}

TEST(SimulationTest, SourceViewNowTracksUpdates) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  Result<Relation> v0 = sim->SourceViewNow();
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(v0->IsEmpty());
  ASSERT_TRUE(sim->StepSourceUpdate().ok());
  Result<Relation> v1 = sim->SourceViewNow();
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->TotalPositive(), 1);  // ([1]) after insert(r2,[2,3])
}

TEST(SimulationTest, TraceNarratesEvents) {
  SimulationOptions options;
  options.instrument.record_trace = true;
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca, options);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  const std::string trace = sim->trace().ToString();
  EXPECT_NE(trace.find("source executes insert(r2,[2,3])"),
            std::string::npos);
  EXPECT_NE(trace.find("warehouse receives"), std::string::npos);
  EXPECT_NE(trace.find("source evaluates"), std::string::npos);
}

TEST(SimulationTest, BatchingShipsOneNotificationPerBatch) {
  Result<PaperExample> ex = MakePaperExample4();
  ASSERT_TRUE(ex.ok());
  SimulationOptions options;
  options.batch_size = 3;
  std::unique_ptr<Simulation> sim =
      MustMakeSim(ex->initial, ex->view, Algorithm::kEcaBatch, options);
  sim->SetUpdateScript(ex->updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_EQ(sim->meter().notifications(), 1);
  EXPECT_EQ(sim->meter().query_messages(), 1);
  EXPECT_EQ(sim->warehouse_view(), ex->expected_correct_final);
}

TEST(SimulationTest, UpdateIdsAssignedInExecutionOrder) {
  std::unique_ptr<Simulation> sim = Example2Sim(Algorithm::kEca);
  ASSERT_TRUE(sim->StepSourceUpdate().ok());
  ASSERT_TRUE(sim->StepSourceUpdate().ok());
  EXPECT_EQ(sim->updates_executed(), 2u);
}

TEST(SimulationTest, InvalidScriptSurfacesSourceError) {
  Result<PaperExample> ex = MakePaperExample2();
  ASSERT_TRUE(ex.ok());
  std::unique_ptr<Simulation> sim =
      MustMakeSim(ex->initial, ex->view, Algorithm::kEca);
  sim->SetUpdateScript({Update::Delete("r2", Tuple::Ints({9, 9}))});
  EXPECT_FALSE(sim->StepSourceUpdate().ok());
}

TEST(TraceTest, KindNamesAndSequence) {
  Trace t;
  t.Add(TraceEvent::Kind::kSourceUpdate, "first");
  t.Add(TraceEvent::Kind::kWarehouseAnswer, "second");
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].sequence, 1u);
  EXPECT_EQ(t.events()[1].sequence, 2u);
  EXPECT_NE(t.ToString().find("S_up"), std::string::npos);
  EXPECT_NE(t.ToString().find("W_ans"), std::string::npos);
}

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch;
  EXPECT_FALSE(ch.HasMessage());
  ch.Send(1);
  ch.Send(2);
  ch.Send(3);
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.Front(), 1);
  EXPECT_EQ(ch.Receive(), 1);
  EXPECT_EQ(ch.Receive(), 2);
  EXPECT_EQ(ch.Receive(), 3);
  EXPECT_FALSE(ch.HasMessage());
}

}  // namespace
}  // namespace wvm
