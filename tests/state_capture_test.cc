// Capture fidelity of the consistency oracle's state log, which stores
// deltas rather than views: each source update records V<u> and each
// warehouse event the maintainer's net change to MV. These tests step every maintainer
// family — every factory Algorithm, CompositeEca, MultiViewWarehouse and
// Deferred — under best, worst and random order and under a crash and
// recovered-restart schedule, and after EVERY step require the log's latest
// states to equal the live ones: the warehouse side warehouse_view(), the
// source side SourceViewNow() evaluated from scratch. A log whose running
// source sum disagrees with a from-scratch evaluation must fail the
// checker.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/composite_eca.h"
#include "core/deferred.h"
#include "core/eca.h"
#include "core/eca_key.h"
#include "core/lca.h"
#include "core/multi_view.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

struct CaptureSetup {
  Workload workload;
  std::vector<Update> updates;
};

CaptureSetup MakeSetup(uint64_t seed) {
  Random rng(seed);
  Result<Workload> w = MakeKeyedWorkload({/*c=*/12, /*j=*/3}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*w, /*k=*/10, /*delete_fraction=*/0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  return CaptureSetup{std::move(*w), std::move(*updates)};
}

// One maintainer family: a name and how to build its simulation.
struct Family {
  std::string name;
  std::function<std::unique_ptr<Simulation>(const CaptureSetup&,
                                            SimulationOptions)>
      make;
};

std::vector<Family> AllFamilies() {
  std::vector<Family> families;
  for (Algorithm algorithm : AllAlgorithms()) {
    families.push_back(
        {AlgorithmName(algorithm),
         [algorithm](const CaptureSetup& s, SimulationOptions options) {
           if (algorithm == Algorithm::kEcaBatch) {
             options.batch_size = 2;  // V<u> summed over a batch
           }
           return MustMakeSim(s.workload.initial, s.workload.view, algorithm,
                              options);
         }});
  }
  families.push_back(
      {"composite-eca",
       [](const CaptureSetup& s, SimulationOptions options) {
         // V - pi_{X,Y}(r1 |x| r2): a difference view with signed counts.
         Result<CompositeViewPtr> composite = CompositeView::Create(
             "D", {{s.workload.view, +1},
                   {*ViewDefinition::NaturalJoin("B", s.workload.defs,
                                                 {"X", "Y"}),
                    -1}});
         EXPECT_TRUE(composite.ok()) << composite.status();
         options.composite_view = *composite;
         Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
             s.workload.initial, s.workload.view,
             std::make_unique<CompositeEca>(*composite), options);
         EXPECT_TRUE(sim.ok()) << sim.status();
         return std::move(*sim);
       }});
  families.push_back(
      {"multi-view",
       [](const CaptureSetup& s, SimulationOptions options) {
         std::vector<std::unique_ptr<ViewMaintainer>> children;
         children.push_back(std::make_unique<Eca>(s.workload.view));
         children.push_back(std::make_unique<EcaKey>(
             *ViewDefinition::NaturalJoin("V1", s.workload.defs,
                                          {"W", "Y"})));
         children.push_back(std::make_unique<Lca>(
             *ViewDefinition::NaturalJoin("V2", s.workload.defs, {"W"})));
         MultiViewOptions multi;
         multi.dedup = true;
         Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
             s.workload.initial, s.workload.view,
             std::make_unique<MultiViewWarehouse>(std::move(children), multi),
             options);
         EXPECT_TRUE(sim.ok()) << sim.status();
         return std::move(*sim);
       }});
  families.push_back(
      {"deferred",
       [](const CaptureSetup& s, SimulationOptions options) {
         Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
             s.workload.initial, s.workload.view,
             std::make_unique<Deferred>(std::make_unique<Eca>(s.workload.view),
                                        /*threshold=*/2),
             options);
         EXPECT_TRUE(sim.ok()) << sim.status();
         return std::move(*sim);
       }});
  return families;
}

// The log's latest states are the live ones.
void ExpectCaptured(const Simulation& sim, const std::string& where) {
  const StateLog& log = sim.state_log();
  ASSERT_FALSE(log.warehouse_view_states.empty()) << where;
  ASSERT_FALSE(log.source_view_states.empty()) << where;
  EXPECT_EQ(log.warehouse_view_states.back(), sim.warehouse_view()) << where;
  Result<Relation> now = sim.SourceViewNow();
  ASSERT_TRUE(now.ok()) << now.status();
  EXPECT_EQ(log.source_view_states.back(), *now) << where;
  EXPECT_EQ(log.source_drift, "") << where;
}

enum class Order { kBest, kWorst, kRandom, kCrash };

const char* OrderName(Order order) {
  switch (order) {
    case Order::kBest:
      return "best";
    case Order::kWorst:
      return "worst";
    case Order::kRandom:
      return "random";
    case Order::kCrash:
      return "crash";
  }
  return "?";
}

std::unique_ptr<Policy> PolicyFor(Order order, uint64_t seed) {
  switch (order) {
    case Order::kBest:
      return std::make_unique<BestCasePolicy>();
    case Order::kWorst:
      return std::make_unique<WorstCasePolicy>();
    default:
      return std::make_unique<RandomPolicy>(seed);
  }
}

SimulationOptions OptionsFor(Order order, uint64_t seed) {
  SimulationOptions options;
  if (order == Order::kCrash) {
    options.fault.enabled = true;
    options.fault.reliable = true;
    options.fault.seed = seed;
    options.fault.retransmit_timeout_ticks = 6;
    options.fault.drop_rate = 0.2;
    options.fault.max_delay_ticks = 1;
    options.recovery.enabled = true;
    options.recovery.checkpoint_every = 3;  // replays a non-empty suffix
  }
  return options;
}

// Steps `sim` to quiescence, checking capture after every step. Under the
// crash order the warehouse crashes at step 9 and the source at step 21,
// each restarted (with recovery) after two wire ticks.
void StepAndCheck(Simulation* sim, Order order, uint64_t seed,
                  const std::string& where) {
  std::unique_ptr<Policy> policy = PolicyFor(order, seed);
  ExpectCaptured(*sim, where + " at creation");
  for (int step = 0; step < 100000; ++step) {
    const std::string at = where + " step " + std::to_string(step);
    if (order == Order::kCrash && (step == 9 || step == 21)) {
      const bool warehouse = step == 9;
      ASSERT_TRUE((warehouse ? sim->CrashWarehouse() : sim->CrashSource()).ok());
      ExpectCaptured(*sim, at + " crash");
      for (int tick = 0; tick < 2 && sim->CanTransportTick(); ++tick) {
        ASSERT_TRUE(sim->StepTransportTick().ok());
        ExpectCaptured(*sim, at + " tick while down");
      }
      ASSERT_TRUE(
          (warehouse ? sim->RestartWarehouse() : sim->RestartSource()).ok());
      ExpectCaptured(*sim, at + " restart");
    }
    const SimAction action = policy->Next(*sim);
    if (action == SimAction::kNone) {
      break;
    }
    Status status = sim->Step(action);
    ASSERT_TRUE(status.ok()) << at << ": " << status;
    ExpectCaptured(*sim, at);
    if (::testing::Test::HasFailure()) {
      return;  // one report per schedule, not one per later step
    }
  }
  EXPECT_TRUE(sim->Quiescent()) << where;
}

class StateCapture : public ::testing::TestWithParam<Order> {};

TEST_P(StateCapture, LatestStatesAreTheLiveOnesAfterEveryStep) {
  const Order order = GetParam();
  for (uint64_t seed : {1, 2, 3}) {
    const CaptureSetup setup = MakeSetup(seed);
    for (const Family& family : AllFamilies()) {
      const std::string where =
          family.name + " " + OrderName(order) + " seed " +
          std::to_string(seed);
      std::unique_ptr<Simulation> sim =
          family.make(setup, OptionsFor(order, seed));
      ASSERT_NE(sim, nullptr) << where;
      sim->SetUpdateScript(setup.updates);
      StepAndCheck(sim.get(), order, seed, where);
      // The differential check rides along on every schedule.
      CheckedConsistency(sim->state_log());
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, StateCapture,
                         ::testing::Values(Order::kBest, Order::kWorst,
                                           Order::kRandom, Order::kCrash),
                         [](const ::testing::TestParamInfo<Order>& info) {
                           return std::string(OrderName(info.param));
                         });

TEST(StateCaptureTest, RecoveredRestartsKeepConvergentFamiliesConvergent) {
  // Recovery restores each maintainer's checkpoint and replays the journal
  // suffix, so the crash schedule must end where the source is for every
  // family that converges at all (the basic algorithm and ECA without
  // compensation need not).
  const CaptureSetup setup = MakeSetup(4);
  for (const Family& family : AllFamilies()) {
    if (family.name == AlgorithmName(Algorithm::kBasic) ||
        family.name == AlgorithmName(Algorithm::kEcaNoCompensation)) {
      continue;
    }
    std::unique_ptr<Simulation> sim =
        family.make(setup, OptionsFor(Order::kCrash, 4));
    sim->SetUpdateScript(setup.updates);
    StepAndCheck(sim.get(), Order::kCrash, 4, family.name);
    const ConsistencyReport report = CheckedConsistency(sim->state_log());
    EXPECT_TRUE(report.convergent) << family.name << ": " << report.ToString();
  }
}

TEST(StateCaptureTest, NoDeltaIsFormedWithRecordingOff) {
  const CaptureSetup setup = MakeSetup(5);
  for (const Family& family : AllFamilies()) {
    SimulationOptions options;
    options.instrument.record_states = false;
    std::unique_ptr<Simulation> sim = family.make(setup, options);
    sim->SetUpdateScript(setup.updates);
    RandomPolicy policy(5);
    ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok()) << family.name;
    EXPECT_TRUE(sim->state_log().source_view_states.empty()) << family.name;
    EXPECT_TRUE(sim->state_log().warehouse_view_states.empty())
        << family.name;
    // The maintainer kept no change either.
    EXPECT_TRUE(sim->mutable_maintainer().TakeViewDelta().IsEmpty())
        << family.name;
  }
}

TEST(StateCaptureTest, LastScriptedStateIsEvaluatedFromScratch) {
  const CaptureSetup setup = MakeSetup(6);
  std::unique_ptr<Simulation> sim =
      MustMakeSim(setup.workload.initial, setup.workload.view, Algorithm::kEca);
  sim->SetUpdateScript(setup.updates);
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  const ViewStates& source = sim->state_log().source_view_states;
  ASSERT_EQ(source.size(), setup.updates.size() + 1);
  Result<Relation> truth = EvaluateView(setup.workload.view,
                                        sim->source_catalog());
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(source.back(), *truth);
  EXPECT_EQ(source.Materialize(source.size() - 1), *truth);
  EXPECT_EQ(sim->state_log().source_drift, "");
}

Relation Rel(std::initializer_list<int64_t> values) {
  Relation r(Schema::Ints({"a"}));
  for (int64_t v : values) {
    r.Insert(Tuple::Ints({v}));
  }
  return r;
}

TEST(StateCaptureTest, DriftedSourceSumFailsTheChecker) {
  // The running sum says {1, 2}; the from-scratch evaluation says {1, 3}.
  // The warehouse followed the running sum, so every state pairs up — the
  // checker must still refuse the log, on every level.
  StateLog log;
  log.RecordSourceState(Rel({}), 0);
  log.RecordWarehouseState(Rel({}), 0);
  log.RecordSourceDelta(Rel({1}), 1);
  log.RecordWarehouseState(Rel({1}), 2);
  log.RecordCheckedSourceState(Rel({2}), Rel({1, 3}), 3);
  log.RecordWarehouseState(Rel({1, 3}), 4);
  EXPECT_NE(log.source_drift, "");
  const ConsistencyReport report = CheckConsistency(log);
  EXPECT_FALSE(report.convergent);
  EXPECT_FALSE(report.weakly_consistent);
  EXPECT_FALSE(report.strongly_consistent);
  EXPECT_FALSE(report.complete);
  EXPECT_NE(report.violation.find("drifted"), std::string::npos)
      << report.violation;
  EXPECT_NE(report.violation.find("[3]"), std::string::npos);
  EXPECT_NE(report.violation.find("[2]"), std::string::npos);
  // The same log with an agreeing evaluation passes.
  StateLog agreeing;
  agreeing.RecordSourceState(Rel({}), 0);
  agreeing.RecordWarehouseState(Rel({}), 0);
  agreeing.RecordSourceDelta(Rel({1}), 1);
  agreeing.RecordCheckedSourceState(Rel({3}), Rel({1, 3}), 3);
  agreeing.RecordWarehouseState(Rel({1, 3}), 4);
  EXPECT_EQ(agreeing.source_drift, "");
  EXPECT_TRUE(CheckConsistency(agreeing).strongly_consistent);
}

}  // namespace
}  // namespace wvm
