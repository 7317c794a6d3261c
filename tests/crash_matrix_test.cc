// System-level crash-restart schedules (the acceptance matrix of the
// recovery subsystem):
//
//   1. deterministic: crash each site at EVERY schedule point of a small
//      update script, for ECA / ECA-Key / ECA-Local, on a clean and on a
//      faulty reliable transport — every schedule still converges and the
//      Section 3.1 checker still reports strong consistency;
//   2. randomized: >= 50 seeded random crash/fault schedules per algorithm
//      and crash site (25 seeds x {crash-warehouse, crash-source}), with
//      random crash points, random downtime, and periodic checkpoints;
//   3. the negative space: with recovery DISABLED a crash provably loses
//      state (the lost-state anomaly the journal exists to prevent), a
//      corrupted journal record refuses to restart, recovery without the
//      reliable transport is rejected, and — journal off by default — a
//      crash-free recovery-enabled run leaves every observable counter
//      byte-identical to a recovery-disabled run.
//
// Every crash schedule is also judged by the full-state reference checker
// (CheckedConsistency), which must agree with the delta oracle exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/eca.h"
#include "core/eca_key.h"
#include "core/multi_view.h"
#include "replication/replicated_simulation.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

enum class CrashSite { kWarehouse, kSource };

FaultConfig ReliableTransport(uint64_t seed, bool faulty) {
  FaultConfig f;
  f.enabled = true;
  f.reliable = true;
  f.seed = seed;
  f.retransmit_timeout_ticks = 6;
  if (faulty) {
    f.drop_rate = 0.25;
    f.duplicate_rate = 0.2;
    f.reorder_rate = 0.3;
    f.max_delay_ticks = 2;
  }
  return f;
}

SimulationOptions RecoveryOptionsFor(uint64_t seed, bool faulty,
                                     int checkpoint_every) {
  SimulationOptions options;
  options.fault = ReliableTransport(seed, faulty);
  options.recovery.enabled = true;
  options.recovery.checkpoint_every = checkpoint_every;
  return options;
}

Status Crash(Simulation* sim, CrashSite site) {
  return site == CrashSite::kWarehouse ? sim->CrashWarehouse()
                                       : sim->CrashSource();
}

Status Restart(Simulation* sim, CrashSite site) {
  return site == CrashSite::kWarehouse ? sim->RestartWarehouse()
                                       : sim->RestartSource();
}

// While a site is down only wire time can pass; let a bounded amount of it
// elapse so in-flight frames reach the dead site (and are discarded there)
// before the restart — the hardest re-sync case.
void LetWireRunWhileDown(Simulation* sim, int ticks) {
  for (int i = 0; i < ticks && sim->CanTransportTick(); ++i) {
    ASSERT_TRUE(sim->StepTransportTick().ok());
  }
}

struct CrashRunResult {
  Status run;
  ConsistencyReport report;
  bool converged = false;
};

// Runs `sim` to quiescence with a random policy, crashing `site` at action
// number `crash_at` (counted across all performed actions) and restarting
// it after `downtime` wire ticks. crash_at < 0 disables crashing.
CrashRunResult RunWithCrashAt(Simulation* sim, uint64_t seed, CrashSite site,
                              int crash_at, int downtime) {
  CrashRunResult result;
  RandomPolicy policy(seed);
  int actions = 0;
  int guard = 0;
  bool crashed = false;
  while (true) {
    if (++guard > 2000000) {
      result.run = Status::Internal("crash schedule failed to quiesce");
      return result;
    }
    if (!crashed && crash_at >= 0 && actions >= crash_at) {
      crashed = true;
      result.run = Crash(sim, site);
      if (!result.run.ok()) {
        return result;
      }
      LetWireRunWhileDown(sim, downtime);
      result.run = Restart(sim, site);
      if (!result.run.ok()) {
        return result;
      }
      continue;
    }
    SimAction action = policy.Next(*sim);
    if (action == SimAction::kNone) {
      if (!crashed && crash_at >= 0) {
        // The schedule ended before the crash point: crash at quiescence
        // (still a valid schedule point — the site must come back clean).
        crash_at = actions;
        continue;
      }
      break;
    }
    result.run = sim->Step(action);
    if (!result.run.ok()) {
      return result;
    }
    ++actions;
  }
  result.run = Status::OK();
  result.report = CheckedConsistency(sim->state_log());
  Result<Relation> source_view = sim->SourceViewNow();
  EXPECT_TRUE(source_view.ok()) << source_view.status();
  result.converged =
      source_view.ok() && sim->warehouse_view() == *source_view &&
      sim->maintainer().IsQuiescent();
  return result;
}

CrashRunResult RunWithCrashAt(std::unique_ptr<Simulation> sim, uint64_t seed,
                              CrashSite site, int crash_at, int downtime) {
  return RunWithCrashAt(sim.get(), seed, site, crash_at, downtime);
}

std::unique_ptr<Simulation> MakeCrashSim(Algorithm algorithm, uint64_t seed,
                                         const SimulationOptions& options,
                                         int updates = 6) {
  Random rng(seed);
  // SelfMaintainer gets the key/FK star its decision procedure feeds on
  // (with integrity-preserving updates), so crashes land while auxiliary
  // complements and the update-history journal are in active use.
  Result<Workload> w =
      algorithm == Algorithm::kSelfMaintain
          ? MakeFkStarWorkload({/*orders=*/16, /*parts=*/6, /*suppliers=*/3,
                                /*cold_parts=*/1},
                               &rng)
      : algorithm == Algorithm::kEcaKey ? MakeKeyedWorkload({10, 3}, &rng)
                                        : MakeExample6Workload({10, 2}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> script =
      algorithm == Algorithm::kSelfMaintain
          ? MakeFkStarUpdates(*w, updates, &rng)
          : MakeMixedUpdates(*w, updates, 0.35, &rng);
  EXPECT_TRUE(script.ok()) << script.status();
  std::unique_ptr<Simulation> sim =
      MustMakeSim(w->initial, w->view, algorithm, options);
  sim->SetUpdateScript(*script);
  return sim;
}

// ---------------------------------------------------------------------------
// 1. Deterministic: crash each site at every schedule point.

class CrashEverywhereTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(CrashEverywhereTest, EverySchedulePointEverySiteStaysConsistent) {
  const auto [algorithm, faulty] = GetParam();
  constexpr uint64_t kSeed = 11;
  // Count the schedule points of the crash-free run first.
  CrashRunResult base = RunWithCrashAt(
      MakeCrashSim(algorithm, kSeed,
                   RecoveryOptionsFor(kSeed, faulty, /*checkpoint_every=*/0),
                   /*updates=*/4),
      kSeed, CrashSite::kWarehouse, /*crash_at=*/-1, /*downtime=*/0);
  ASSERT_TRUE(base.run.ok()) << base.run;
  ASSERT_TRUE(base.report.strongly_consistent);
  ASSERT_TRUE(base.converged);
  // The same policy seed replays the same schedule, so `crash_at` sweeps
  // every prefix of it (past the end it crashes at quiescence). Cap the
  // sweep to keep the matrix affordable while still crossing every update,
  // query, answer, and a tail of ticks.
  for (CrashSite site : {CrashSite::kWarehouse, CrashSite::kSource}) {
    for (int crash_at = 0; crash_at <= 40; crash_at += 2) {
      CrashRunResult r = RunWithCrashAt(
          MakeCrashSim(algorithm, kSeed,
                       RecoveryOptionsFor(kSeed, faulty, 0), 4),
          kSeed, site, crash_at, /*downtime=*/3);
      ASSERT_TRUE(r.run.ok())
          << "site=" << static_cast<int>(site) << " at=" << crash_at
          << ": " << r.run;
      EXPECT_TRUE(r.report.strongly_consistent)
          << "site=" << static_cast<int>(site) << " at=" << crash_at;
      EXPECT_TRUE(r.converged)
          << "site=" << static_cast<int>(site) << " at=" << crash_at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashEverywhereTest,
    ::testing::Combine(::testing::Values(Algorithm::kEca, Algorithm::kEcaKey,
                                         Algorithm::kEcaLocal,
                                         Algorithm::kSelfMaintain),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// 2. Randomized: >= 50 seeded crash/fault schedules per algorithm and site.

class RandomCrashMatrix : public ::testing::TestWithParam<uint64_t> {
 protected:
  void RunSite(Algorithm algorithm, CrashSite site) {
    const uint64_t seed = GetParam();
    Random rng(seed * 7919 + 13);
    // Random crash point, random downtime, and a checkpoint cadence that
    // sweeps 0 (initial-checkpoint only) through 3 — so truncation and
    // mid-run checkpoints are exercised too.
    const int crash_at = static_cast<int>(rng.Uniform(30));
    const int downtime = static_cast<int>(rng.Uniform(6));
    const int checkpoint_every = static_cast<int>(seed % 4);
    CrashRunResult r = RunWithCrashAt(
        MakeCrashSim(algorithm, seed,
                     RecoveryOptionsFor(seed * 1337 + 1, /*faulty=*/true,
                                        checkpoint_every)),
        seed, site, crash_at, downtime);
    ASSERT_TRUE(r.run.ok()) << r.run;
    EXPECT_TRUE(r.report.strongly_consistent);
    EXPECT_TRUE(r.converged);
  }
};

TEST_P(RandomCrashMatrix, EcaSurvivesWarehouseCrash) {
  RunSite(Algorithm::kEca, CrashSite::kWarehouse);
}
TEST_P(RandomCrashMatrix, EcaSurvivesSourceCrash) {
  RunSite(Algorithm::kEca, CrashSite::kSource);
}
TEST_P(RandomCrashMatrix, EcaKeySurvivesWarehouseCrash) {
  RunSite(Algorithm::kEcaKey, CrashSite::kWarehouse);
}
TEST_P(RandomCrashMatrix, EcaKeySurvivesSourceCrash) {
  RunSite(Algorithm::kEcaKey, CrashSite::kSource);
}
TEST_P(RandomCrashMatrix, EcaLocalSurvivesWarehouseCrash) {
  RunSite(Algorithm::kEcaLocal, CrashSite::kWarehouse);
}
TEST_P(RandomCrashMatrix, EcaLocalSurvivesSourceCrash) {
  RunSite(Algorithm::kEcaLocal, CrashSite::kSource);
}
TEST_P(RandomCrashMatrix, SelfMaintainerSurvivesWarehouseCrash) {
  RunSite(Algorithm::kSelfMaintain, CrashSite::kWarehouse);
}
TEST_P(RandomCrashMatrix, SelfMaintainerSurvivesSourceCrash) {
  RunSite(Algorithm::kSelfMaintain, CrashSite::kSource);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCrashMatrix,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------------------
// 3a. The lost-state anomaly: without recovery, a crash between delivery
// and consumption silently loses an acked message, and the view never
// catches up — exactly the hole the "acked => journaled" invariant plugs.

TEST(LostStateAnomalyTest, BareRestartLosesDeliveredAnswerForever) {
  auto run = [](uint64_t seed, bool with_recovery) {
    Random rng(seed);
    Result<Workload> w = MakeExample6Workload({10, 2}, &rng);
    EXPECT_TRUE(w.ok()) << w.status();
    Result<std::vector<Update>> script = MakeMixedUpdates(*w, 1, 0.0, &rng);
    EXPECT_TRUE(script.ok()) << script.status();
    SimulationOptions options;
    options.fault = ReliableTransport(/*seed=*/5, /*faulty=*/false);
    options.recovery.enabled = with_recovery;
    std::unique_ptr<Simulation> sim =
        MustMakeSim(w->initial, w->view, Algorithm::kEca, options);
    sim->SetUpdateScript(*script);
    // Drive the single update's full round trip up to (not including) the
    // answer's consumption: U1 notified and consumed, Q1 sent, answered,
    // and the answer DELIVERED (hence acked) at the warehouse.
    EXPECT_TRUE(sim->StepSourceUpdate().ok());
    auto pump = [&sim](bool (Simulation::*can)() const,
                       Status (Simulation::*step)()) {
      int guard = 0;
      while (!((*sim).*can)() && sim->CanTransportTick()) {
        EXPECT_TRUE(sim->StepTransportTick().ok());
        if (++guard > 10000) {
          FAIL() << "pump stuck";
        }
      }
      EXPECT_TRUE(((*sim).*step)().ok());
    };
    pump(&Simulation::CanWarehouseStep, &Simulation::StepWarehouse);  // U1
    pump(&Simulation::CanSourceAnswer, &Simulation::StepSourceAnswer);
    int guard = 0;
    while (!sim->CanWarehouseStep()) {  // answer in flight -> delivered
      EXPECT_TRUE(sim->StepTransportTick().ok());
      if (++guard > 10000) {
        break;
      }
    }
    EXPECT_TRUE(sim->CanWarehouseStep());
    // Crash NOW: the answer sits delivered-but-unconsumed. The source has
    // seen the cumulative ack, so no retransmission will ever repair this.
    EXPECT_TRUE(sim->CrashWarehouse().ok());
    EXPECT_TRUE(sim->RestartWarehouse().ok());
    RandomPolicy policy(17);
    EXPECT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    Result<Relation> source_view = sim->SourceViewNow();
    EXPECT_TRUE(source_view.ok());
    return sim->warehouse_view() == *source_view;
  };
  // Not every random insert changes the view; find a seed whose single
  // update does (so losing its answer is observable), then show recovery
  // repairs the identical schedule.
  bool anomaly_found = false;
  for (uint64_t seed = 1; seed <= 24 && !anomaly_found; ++seed) {
    if (!run(seed, /*with_recovery=*/false)) {
      anomaly_found = true;
      EXPECT_TRUE(run(seed, /*with_recovery=*/true))
          << "journal replay should repair the schedule seed " << seed;
    }
  }
  EXPECT_TRUE(anomaly_found)
      << "bare restart should exhibit the lost-state anomaly";
}

// ---------------------------------------------------------------------------
// 3b. A corrupted journal record refuses to restart (checksum rejection at
// the system level).

TEST(CrashRecoveryTest, CorruptedJournalRecordFailsRestart) {
  const uint64_t kSeed = 21;
  std::unique_ptr<Simulation> sim = MakeCrashSim(
      Algorithm::kEca, kSeed, RecoveryOptionsFor(kSeed, /*faulty=*/false, 0));
  RandomPolicy policy(kSeed);
  // Run a while so the warehouse inbound journal has records to damage.
  for (int i = 0; i < 12; ++i) {
    SimAction a = policy.Next(*sim);
    if (a == SimAction::kNone) {
      break;
    }
    ASSERT_TRUE(sim->Step(a).ok());
  }
  const auto& inbound = sim->warehouse_log().inbound;
  ASSERT_GT(inbound.size(), 0u) << "test needs journaled inbound frames";
  sim->mutable_warehouse_log().inbound.CorruptRecordForTest(
      inbound.begin_lsn());
  ASSERT_TRUE(sim->CrashWarehouse().ok());
  Status restart = sim->RestartWarehouse();
  EXPECT_EQ(restart.code(), StatusCode::kInternal)
      << "restart must refuse a journal that fails checksum validation: "
      << restart;
}

// ---------------------------------------------------------------------------
// 3c. Guard rails: recovery and crashes require the reliable transport.

TEST(CrashRecoveryTest, RecoveryWithoutReliableTransportIsRejected) {
  Random rng(2);
  Result<Workload> w = MakeExample6Workload({8, 2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();
  Result<std::unique_ptr<ViewMaintainer>> maintainer =
      MakeMaintainer({.algorithm = Algorithm::kEca}, w->view);
  ASSERT_TRUE(maintainer.ok());
  SimulationOptions options;
  options.recovery.enabled = true;  // but fault/reliable off
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      w->initial, w->view, std::move(*maintainer), options);
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
}

TEST(CrashRecoveryTest, CrashOnPassthroughChannelIsRejected) {
  Random rng(2);
  Result<Workload> w = MakeExample6Workload({8, 2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();
  std::unique_ptr<Simulation> sim =
      MustMakeSim(w->initial, w->view, Algorithm::kEca);
  EXPECT_EQ(sim->CrashWarehouse().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim->CrashSource().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(sim->CanCrashWarehouse());
  EXPECT_FALSE(sim->CanCrashSource());
}

// ---------------------------------------------------------------------------
// 3d. Zero-impact default: with recovery enabled but no crash, every
// observable counter matches the recovery-disabled run bit for bit —
// journaling is pure bookkeeping off the hot path.

TEST(CrashRecoveryTest, RecoveryWithoutCrashesIsObservablyIdentical) {
  auto run = [](bool recovery) {
    Random rng(13);
    Result<Workload> w = MakeExample6Workload({10, 2}, &rng);
    EXPECT_TRUE(w.ok()) << w.status();
    Result<std::vector<Update>> script = MakeMixedUpdates(*w, 6, 0.3, &rng);
    EXPECT_TRUE(script.ok()) << script.status();
    SimulationOptions options;
    options.fault = ReliableTransport(/*seed=*/77, /*faulty=*/true);
    options.recovery.enabled = recovery;
    options.recovery.checkpoint_every = recovery ? 2 : 0;
    std::unique_ptr<Simulation> sim =
        MustMakeSim(w->initial, w->view, Algorithm::kEca, options);
    sim->SetUpdateScript(*script);
    RandomPolicy policy(13);
    EXPECT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    return sim;
  };
  std::unique_ptr<Simulation> with = run(true);
  std::unique_ptr<Simulation> without = run(false);
  EXPECT_TRUE(with->warehouse_view() == without->warehouse_view());
  EXPECT_EQ(with->meter().ToString(), without->meter().ToString());
  EXPECT_EQ(with->transport_stats().ToString(),
            without->transport_stats().ToString());
  EXPECT_EQ(with->state_log().warehouse_view_states.size(),
            without->state_log().warehouse_view_states.size());
  EXPECT_EQ(with->state_log().source_view_states.size(),
            without->state_log().source_view_states.size());
  // And the recovery run's journals really were populated (the identity
  // above is not vacuous).
  EXPECT_GT(with->warehouse_log().inbound.end_lsn(), 0u);
  EXPECT_GT(with->source_log().inbound.end_lsn(), 0u);
}

// ---------------------------------------------------------------------------
// 4. Replicated tier: crash a replica in the MIDDLE of its journal-replay
// catch-up. The rejoin must restart from the checkpoint + journal without
// losing or double-applying records, the replica must never serve a read
// while its view is partially replayed, and the group must end strongly
// convergent.

TEST(CrashRecoveryTest, ReplicaCrashMidCatchUpRejoinsStronglyConsistent) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Random rng(seed);
    Result<Workload> w = MakeExample6Workload({30, 3}, &rng);
    ASSERT_TRUE(w.ok()) << w.status();
    Result<std::vector<Update>> script = MakeRoundRobinInserts(*w, 10, &rng);
    ASSERT_TRUE(script.ok()) << script.status();

    SimulationOptions sim_options;
    sim_options.fault = ReliableTransport(seed, /*faulty=*/true);
    ReplicationOptions rep;
    rep.num_replicas = 3;
    rep.heartbeat_rounds = 30;
    rep.heartbeat_loss_rate = 0.0;
    rep.checkpoint_every = 4;
    rep.catch_up_batch = 1;  // smallest steps: the widest crash window
    Result<std::unique_ptr<ReplicatedSimulation>> made =
        ReplicatedSimulation::Create(w->initial, w->view, Algorithm::kEca,
                                     sim_options, rep);
    ASSERT_TRUE(made.ok()) << made.status();
    ReplicatedSimulation* sim = made->get();
    sim->SetUpdateScript(*script);

    // No replica may serve a read unless it is up and in the group.
    sim->SetReadObserver([&](int, const ReadResult& result,
                             const Replica* replica) {
      if (!result.served) {
        return;
      }
      EXPECT_TRUE(replica->up());
      EXPECT_EQ(replica->membership(), ReplicaMembership::kInGroup)
          << "a catching-up replica served a partially-replayed view";
    });

    RandomReplicatedPolicy policy(seed);
    const int victim = 1;
    int actions = 0;
    enum { kBeforeFirstCrash, kCatchingUp, kDone } phase = kBeforeFirstCrash;
    for (int guard = 0;; ++guard) {
      ASSERT_LT(guard, 2000000) << "seed " << seed << " failed to quiesce";
      if (phase == kBeforeFirstCrash && actions >= 12) {
        // First crash, mid-run: lose volatile state while traffic flies.
        ASSERT_TRUE(sim->CrashReplica(victim).ok());
        ASSERT_TRUE(sim->RejoinReplica(victim).ok());
        // Advance the head so catch-up has a real gap to close, then take
        // a FEW catch-up steps — deliberately not all of them.
        while (sim->replica(victim).applied_lsn() + 2 >=
                   sim->sequencer().head_lsn() &&
               sim->CanLeadStep()) {
          ASSERT_TRUE(sim->StepLeadStep().ok());
        }
        if (sim->CanCatchUp(victim)) {
          ASSERT_TRUE(sim->StepCatchUp(victim).ok());
        }
        if (sim->replica(victim).membership() ==
            ReplicaMembership::kCatchingUp) {
          // Crash it again, mid-catch-up: some records applied past the
          // checkpoint, some journaled-but-unapplied.
          ASSERT_TRUE(sim->CrashReplica(victim).ok());
          ASSERT_TRUE(sim->RejoinReplica(victim).ok());
        }
        phase = kCatchingUp;
        continue;
      }
      if (sim->Quiescent()) {
        break;
      }
      RepAction action = policy.Next(*sim);
      ASSERT_NE(action.kind, RepAction::Kind::kNone) << "seed " << seed;
      ASSERT_TRUE(sim->Step(action).ok()) << "seed " << seed;
      ++actions;
    }

    // Strong convergence: the twice-crashed replica's view is byte-equal
    // to the lead's and to every peer's.
    ReplicaConvergenceReport conv = sim->ConvergenceNow();
    EXPECT_TRUE(conv.converged) << "seed " << seed << ": " << conv.ToString();
    for (int r = 0; r < sim->num_replicas(); ++r) {
      EXPECT_EQ(sim->replica(r).view(), sim->lead().warehouse_view())
          << "seed " << seed << " replica " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// 5. Multi-view shared maintenance under crash/restart: three children of
// mixed algorithms (ECA-Key + two ECA, one a structural twin of the keyed
// view) behind one warehouse, crashed at every sampled schedule point of
// both sites, on clean and faulty reliable transports, with dedup on and
// off. Every run must converge every child to the source truth, and the
// dedup-on finals must be tuple-for-tuple identical to the dedup-off
// baseline at the SAME (site, crash point) — shared maintenance may not
// change what a crash can observe or lose.

struct MultiViewCrashSetup {
  Workload workload;
  std::vector<ViewDefinitionPtr> views;
  std::vector<Update> updates;
};

MultiViewCrashSetup MakeMultiViewCrashSetup(uint64_t seed) {
  Random rng(seed);
  Result<Workload> w = MakeKeyedWorkload({10, 3}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*w, /*k=*/5, /*delete_fraction=*/0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  MultiViewCrashSetup s{std::move(*w), {}, std::move(*updates)};
  s.views = {
      s.workload.view,  // EcaKey
      // Structural twin of the keyed view: exercises cross-child dedup.
      *ViewDefinition::NaturalJoin("V1", s.workload.defs, {"W", "Y"}),
      *ViewDefinition::NaturalJoin("V2", s.workload.defs, {"W"}),
  };
  return s;
}

std::unique_ptr<Simulation> MakeMultiViewCrashSim(
    const MultiViewCrashSetup& s, bool dedup, const SimulationOptions& options,
    MultiViewWarehouse** multi_out) {
  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<EcaKey>(s.views[0]));
  children.push_back(std::make_unique<Eca>(s.views[1]));
  children.push_back(std::make_unique<Eca>(s.views[2]));
  MultiViewOptions mv;
  mv.dedup = dedup;
  auto multi = std::make_unique<MultiViewWarehouse>(std::move(children), mv);
  *multi_out = multi.get();
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      s.workload.initial, s.views[0], std::move(multi), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  (*sim)->SetUpdateScript(s.updates);
  return std::move(*sim);
}

TEST(MultiViewCrashTest, SharedMaintenanceSurvivesEverySchedulePoint) {
  constexpr uint64_t kSeed = 9;
  MultiViewCrashSetup s = MakeMultiViewCrashSetup(kSeed);
  for (bool faulty : {false, true}) {
    for (CrashSite site : {CrashSite::kWarehouse, CrashSite::kSource}) {
      for (int crash_at = 0; crash_at <= 30; crash_at += 5) {
        SCOPED_TRACE(::testing::Message()
                     << "faulty=" << faulty << " site="
                     << static_cast<int>(site) << " at=" << crash_at);
        std::vector<Relation> baseline;
        for (bool dedup : {false, true}) {
          MultiViewWarehouse* multi = nullptr;
          std::unique_ptr<Simulation> sim = MakeMultiViewCrashSim(
              s, dedup,
              RecoveryOptionsFor(kSeed, faulty, /*checkpoint_every=*/2),
              &multi);
          ASSERT_NE(multi, nullptr);
          CrashRunResult r = RunWithCrashAt(sim.get(), kSeed, site, crash_at,
                                            /*downtime=*/3);
          ASSERT_TRUE(r.run.ok()) << "dedup=" << dedup << ": " << r.run;
          EXPECT_TRUE(r.report.strongly_consistent) << "dedup=" << dedup;
          EXPECT_TRUE(r.converged) << "dedup=" << dedup;
          std::vector<Relation> finals;
          for (size_t i = 0; i < s.views.size(); ++i) {
            Result<Relation> expected =
                EvaluateView(s.views[i], sim->source_catalog());
            ASSERT_TRUE(expected.ok()) << expected.status();
            EXPECT_EQ(multi->child(i).view_contents(), *expected)
                << "child " << i << " dedup=" << dedup;
            finals.push_back(multi->child(i).view_contents());
          }
          if (!dedup) {
            baseline = std::move(finals);
          } else {
            for (size_t i = 0; i < baseline.size(); ++i) {
              EXPECT_EQ(finals[i], baseline[i])
                  << "child " << i
                  << " diverges under shared maintenance after the crash";
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 6. The matrix over REAL files and an asymmetric wire: every journal
// backed by on-disk WAL segments (JournalBackend::kFile), under a lossy
// uplink / clean downlink split (SimulationOptions::fault_up) with a
// further ack-path asymmetry inside the uplink. The durable medium and the
// fault schedule change; every consistency verdict must not.

SimulationOptions AsymmetricFileOptions(uint64_t seed, int checkpoint_every) {
  SimulationOptions options;
  // Downlink (source -> warehouse answers): clean but slow.
  options.fault = ReliableTransport(seed, /*faulty=*/false);
  options.fault.max_delay_ticks = 1;
  // Uplink (warehouse -> source queries): lossy, with its own ack path
  // cleaner than its data path.
  FaultConfig up = ReliableTransport(seed * 977 + 5, /*faulty=*/true);
  up.drop_rate = 0.35;
  up.ack.drop_rate = 0.1;
  up.ack.max_delay_ticks = 1;
  options.fault_up = up;
  options.recovery.enabled = true;
  options.recovery.checkpoint_every = checkpoint_every;
  options.recovery.backend = JournalBackend::kFile;
  // Small segments + batched group commit so crash schedules cross segment
  // rotations and flush boundaries, not just one growing file.
  options.recovery.wal.segment_bytes = 1 << 12;
  options.recovery.wal.flush_appends = 4;
  return options;
}

TEST(FileBackedCrashMatrixTest, EverySampledSchedulePointOverRealWalFiles) {
  constexpr uint64_t kSeed = 19;
  int64_t total_drops = 0;
  for (Algorithm algorithm : {Algorithm::kEca, Algorithm::kEcaKey}) {
    for (CrashSite site : {CrashSite::kWarehouse, CrashSite::kSource}) {
      for (int crash_at = 0; crash_at <= 36; crash_at += 4) {
        std::unique_ptr<Simulation> sim = MakeCrashSim(
            algorithm, kSeed, AsymmetricFileOptions(kSeed, /*checkpoint=*/2),
            /*updates=*/4);
        CrashRunResult r =
            RunWithCrashAt(sim.get(), kSeed, site, crash_at, /*downtime=*/3);
        ASSERT_TRUE(r.run.ok())
            << "site=" << static_cast<int>(site) << " at=" << crash_at
            << ": " << r.run;
        EXPECT_TRUE(r.report.strongly_consistent)
            << "site=" << static_cast<int>(site) << " at=" << crash_at;
        EXPECT_TRUE(r.converged)
            << "site=" << static_cast<int>(site) << " at=" << crash_at;
        // The run really went through the disk: records were appended and
        // group commit fsynced them in batches.
        const WalStats wal = sim->wal_stats();
        EXPECT_GT(wal.appends, 0);
        EXPECT_GT(wal.fsyncs, 0);
        EXPECT_GT(wal.appended_bytes, 0);
        // A single short schedule can legitimately see zero drops (few
        // uplink queries, lucky coins); the matrix as a whole must not.
        total_drops += sim->transport_stats().link.frames_dropped;
      }
    }
  }
  EXPECT_GT(total_drops, 0) << "the lossy uplink never dropped anything";
}

TEST(FileBackedCrashMatrixTest, RandomizedSeedsSurviveWalAndAsymmetry) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Random rng(seed * 104729 + 17);
    const CrashSite site =
        rng.Uniform(2) == 0 ? CrashSite::kWarehouse : CrashSite::kSource;
    const int crash_at = static_cast<int>(rng.Uniform(30));
    const int downtime = static_cast<int>(rng.Uniform(6));
    CrashRunResult r = RunWithCrashAt(
        MakeCrashSim(Algorithm::kEca, seed,
                     AsymmetricFileOptions(seed, static_cast<int>(seed % 4))),
        seed, site, crash_at, downtime);
    ASSERT_TRUE(r.run.ok()) << "seed " << seed << ": " << r.run;
    EXPECT_TRUE(r.report.strongly_consistent) << "seed " << seed;
    EXPECT_TRUE(r.converged) << "seed " << seed;
  }
}

TEST(FileBackedCrashMatrixTest, FileBackendMatchesMemoryBackendObservables) {
  // The WAL is a durability layer, not a behavior change: the same seeded
  // run over kFile and kMemory journals must produce identical views and
  // identical meters.
  auto run = [](JournalBackend backend) {
    const uint64_t kSeed = 33;
    SimulationOptions options = AsymmetricFileOptions(kSeed, 2);
    options.recovery.backend = backend;
    std::unique_ptr<Simulation> sim =
        MakeCrashSim(Algorithm::kEca, kSeed, options);
    RandomPolicy policy(kSeed);
    EXPECT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    return sim;
  };
  std::unique_ptr<Simulation> file = run(JournalBackend::kFile);
  std::unique_ptr<Simulation> memory = run(JournalBackend::kMemory);
  EXPECT_TRUE(file->warehouse_view() == memory->warehouse_view());
  EXPECT_EQ(file->meter().ToString(), memory->meter().ToString());
  EXPECT_EQ(file->transport_stats().ToString(),
            memory->transport_stats().ToString());
  EXPECT_GT(file->wal_stats().appends, 0);
  EXPECT_EQ(memory->wal_stats().appends, 0);
}

TEST(FileBackedCrashMatrixTest, OwnedWalDirectoryIsRemovedOnDestruction) {
  std::string dir;
  {
    std::unique_ptr<Simulation> sim =
        MakeCrashSim(Algorithm::kEca, 7, AsymmetricFileOptions(7, 0));
    dir = sim->wal_dir();
    ASSERT_FALSE(dir.empty());
    RandomPolicy policy(7);
    ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir))
      << "the simulation leaked its temp WAL directory";
}

TEST(FileBackedCrashMatrixTest, GuardRails) {
  Random rng(2);
  Result<Workload> w = MakeExample6Workload({8, 2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();
  // kFile without recovery makes no sense: there is nothing to journal.
  {
    Result<std::unique_ptr<ViewMaintainer>> m =
        MakeMaintainer({.algorithm = Algorithm::kEca}, w->view);
    ASSERT_TRUE(m.ok());
    SimulationOptions options;
    options.fault = ReliableTransport(1, false);
    options.recovery.backend = JournalBackend::kFile;
    EXPECT_EQ(Simulation::Create(w->initial, w->view, std::move(*m), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // fault_up must agree with fault on enabled and reliable: a reliable
  // downlink with a raw uplink would break the recovery protocol's
  // sequence-number bookkeeping on one side only.
  {
    Result<std::unique_ptr<ViewMaintainer>> m =
        MakeMaintainer({.algorithm = Algorithm::kEca}, w->view);
    ASSERT_TRUE(m.ok());
    SimulationOptions options;
    options.fault = ReliableTransport(1, false);
    FaultConfig up;
    up.enabled = true;  // but reliable = false, disagreeing with fault
    options.fault_up = up;
    EXPECT_EQ(Simulation::Create(w->initial, w->view, std::move(*m), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace wvm
