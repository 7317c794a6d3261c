// The replicated warehouse tier (DESIGN.md Section 2g), end to end:
//
//   1. convergence: N = 3 replicas driven by the sequenced broadcast reach
//      byte-identical view state under a seeded drop/duplicate/reorder/
//      delay grid, for ECA / ECA-Key / ECA-Local, with at least one
//      heartbeat eviction and one journal-replay rejoin per schedule;
//   2. the LSN discipline: per-channel protocol sequence numbers coincide
//      with global LSNs, and checkpoints truncate both the replicas'
//      journals and the sequencer history;
//   3. read policies: read-your-writes never serves a client a view
//      missing one of its own settled updates, bounded staleness never
//      serves beyond the configured lag;
//   4. metering: heartbeat traffic lands beside — never inside — the
//      paper's M/B counters.
#include "replication/replicated_simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

FaultConfig FaultyReliable(uint64_t seed) {
  FaultConfig f;
  f.enabled = true;
  f.reliable = true;
  f.seed = seed;
  f.retransmit_timeout_ticks = 6;
  f.drop_rate = 0.25;
  f.duplicate_rate = 0.2;
  f.reorder_rate = 0.3;
  f.max_delay_ticks = 2;
  return f;
}

struct ReplicatedFixture {
  Workload workload;
  std::vector<Update> updates;
  std::unique_ptr<ReplicatedSimulation> sim;
};

ReplicatedFixture MakeReplicated(Algorithm algorithm, uint64_t seed,
                                 SimulationOptions sim_options,
                                 ReplicationOptions rep_options,
                                 int num_updates = 12) {
  ReplicatedFixture f;
  Random rng(seed);
  Result<Workload> workload =
      algorithm == Algorithm::kEcaKey
          ? MakeKeyedWorkload(KeyedConfig{40, 3}, &rng)
          : MakeExample6Workload(Example6Config{40, 3}, &rng);
  EXPECT_TRUE(workload.ok()) << workload.status();
  f.workload = std::move(*workload);
  Result<std::vector<Update>> updates =
      MakeRoundRobinInserts(f.workload, num_updates, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  f.updates = std::move(*updates);
  Result<std::unique_ptr<ReplicatedSimulation>> sim =
      ReplicatedSimulation::Create(f.workload.initial, f.workload.view,
                                   algorithm, sim_options, rep_options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  f.sim = std::move(*sim);
  f.sim->SetUpdateScript(f.updates);
  return f;
}

// Runs a full crash schedule: random interleaving, a driver-injected crash
// of `victim` after `crash_at` actions, forced heartbeat rounds until the
// monitor evicts the silent replica, a rejoin, and a policy-driven drain to
// quiescence (the policy performs the catch-up steps).
Status RunWithReplicaCrash(ReplicatedSimulation* sim, uint64_t seed,
                           int crash_at, int victim) {
  RandomReplicatedPolicy policy(seed);
  int actions = 0;
  bool crashed = false;
  bool rejoined = false;
  for (int guard = 0; guard < 2000000; ++guard) {
    if (!crashed && actions >= crash_at) {
      crashed = true;
      WVM_RETURN_IF_ERROR(sim->CrashReplica(victim));
      // Let the failure detector do the evicting: the crashed replica is
      // silent, so bounded missed rounds must remove it from the group.
      while (sim->replica(victim).membership() != ReplicaMembership::kEvicted) {
        if (!sim->CanHeartbeatRound()) {
          return Status::Internal("heartbeat budget too small to evict");
        }
        WVM_RETURN_IF_ERROR(sim->StepHeartbeatRound());
      }
      continue;
    }
    if (crashed && !rejoined) {
      rejoined = true;
      WVM_RETURN_IF_ERROR(sim->RejoinReplica(victim));
      continue;
    }
    if (sim->Quiescent()) {
      return Status::OK();
    }
    RepAction action = policy.Next(*sim);
    if (action.kind == RepAction::Kind::kNone) {
      return Status::Internal("policy stalled on a non-quiescent run");
    }
    WVM_RETURN_IF_ERROR(sim->Step(action));
    ++actions;
  }
  return Status::Internal("crash schedule failed to quiesce");
}

bool TraceHas(const Trace& trace, TraceEvent::Kind kind) {
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(ReplicationTest, ConvergesUnderFaultGridWithEvictionAndRejoin) {
  const Algorithm algorithms[] = {Algorithm::kEca, Algorithm::kEcaKey,
                                  Algorithm::kEcaLocal};
  for (Algorithm algorithm : algorithms) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SimulationOptions sim_options;
      sim_options.fault = FaultyReliable(seed);
      ReplicationOptions rep;
      rep.num_replicas = 3;
      rep.reads = 10;
      rep.heartbeat_rounds = 60;
      rep.suspect_after = 2;
      rep.evict_after = 3;
      rep.heartbeat_loss_rate = 0.0;  // data plane faulty, control clean
      rep.checkpoint_every = 5;
      ReplicatedFixture f =
          MakeReplicated(algorithm, seed, sim_options, rep);
      Status run = RunWithReplicaCrash(f.sim.get(), seed, 15, 1);
      ASSERT_TRUE(run.ok())
          << AlgorithmName(algorithm) << " seed " << seed << ": " << run;

      // The schedule really exercised eviction + journal-replay rejoin.
      EXPECT_GE(f.sim->monitor().evictions(), 1)
          << AlgorithmName(algorithm) << " seed " << seed;
      EXPECT_TRUE(TraceHas(f.sim->trace(), TraceEvent::Kind::kEviction));
      EXPECT_TRUE(TraceHas(f.sim->trace(), TraceEvent::Kind::kRejoin));

      // Every replica converged to the lead's exact view state.
      ReplicaConvergenceReport conv = f.sim->ConvergenceNow();
      EXPECT_TRUE(conv.converged)
          << AlgorithmName(algorithm) << " seed " << seed << ": "
          << conv.ToString();
      for (int r = 0; r < f.sim->num_replicas(); ++r) {
        EXPECT_EQ(f.sim->replica(r).view(), f.sim->lead().warehouse_view())
            << AlgorithmName(algorithm) << " seed " << seed << " replica "
            << r;
      }
    }
  }
}

TEST(ReplicationTest, ChannelSequenceNumbersCoincideWithLsns) {
  SimulationOptions sim_options;
  sim_options.fault = FaultyReliable(7);
  ReplicationOptions rep;
  rep.num_replicas = 3;
  rep.checkpoint_every = 0;  // keep full journals for the comparison
  ReplicatedFixture f = MakeReplicated(Algorithm::kEca, 7, sim_options, rep);
  RandomReplicatedPolicy policy(7);
  ASSERT_TRUE(RunReplicatedToQuiescence(f.sim.get(), &policy).ok());

  const uint64_t head = f.sim->sequencer().head_lsn();
  EXPECT_GT(head, 0u);
  EXPECT_EQ(f.sim->sequencer().history().end_lsn(), head);
  for (int r = 0; r < f.sim->num_replicas(); ++r) {
    // The reliable protocol's per-channel numbering IS the global LSN
    // numbering: the sender's next seq and the receiver's next expected
    // both sit exactly at the head once everything is delivered.
    EXPECT_EQ(f.sim->sequencer().channel(r).next_seq(), head) << r;
    EXPECT_EQ(f.sim->sequencer().channel(r).next_expected(), head) << r;
    EXPECT_EQ(f.sim->replica(r).applied_lsn(), head) << r;
    // Acked => journaled: the journal holds exactly the delivered prefix.
    EXPECT_EQ(f.sim->replica(r).journal().end_lsn(), head) << r;
    EXPECT_EQ(f.sim->replica(r).journal().begin_lsn(), 0u) << r;
  }
}

TEST(ReplicationTest, CheckpointsTruncateJournalsAndHistory) {
  SimulationOptions sim_options;  // clean reliable transport (forced on)
  ReplicationOptions rep;
  rep.num_replicas = 2;
  rep.checkpoint_every = 4;
  ReplicatedFixture f =
      MakeReplicated(Algorithm::kEca, 11, sim_options, rep, 16);
  RandomReplicatedPolicy policy(11);
  ASSERT_TRUE(RunReplicatedToQuiescence(f.sim.get(), &policy).ok());

  const uint64_t head = f.sim->sequencer().head_lsn();
  for (int r = 0; r < f.sim->num_replicas(); ++r) {
    const Replica& rep_r = f.sim->replica(r);
    ASSERT_TRUE(rep_r.checkpoint().has_value());
    EXPECT_GT(rep_r.checkpoint()->consumed_floor, 0u) << r;
    // The journal prefix covered by the checkpoint is gone.
    EXPECT_EQ(rep_r.journal().begin_lsn(), rep_r.checkpoint()->consumed_floor)
        << r;
    EXPECT_EQ(rep_r.journal().end_lsn(), head) << r;
  }
  // The sequencer history is trimmed to the lowest checkpoint floor: no
  // possible catch-up can start below it.
  uint64_t min_floor = head;
  for (int r = 0; r < f.sim->num_replicas(); ++r) {
    min_floor =
        std::min(min_floor, f.sim->replica(r).checkpoint()->consumed_floor);
  }
  EXPECT_EQ(f.sim->sequencer().history().begin_lsn(), min_floor);
  EXPECT_GT(min_floor, 0u);
}

TEST(ReplicationTest, ReadYourWritesNeverMissesOwnSettledUpdate) {
  // A single-relation identity view makes every insert's view effect
  // directly observable: V = pi_{W,X}(sigma_true(r1)).
  BaseRelationDef r1{"r1", Schema({{"W", ValueType::kInt, false},
                                   {"X", ValueType::kInt, false}})};
  Result<ViewDefinitionPtr> view = ViewDefinition::Create(
      "V", {r1}, {"W", "X"}, Predicate::True());
  ASSERT_TRUE(view.ok()) << view.status();
  Catalog initial;
  ASSERT_TRUE(initial.Define(r1).ok());

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SimulationOptions sim_options;
    sim_options.fault = FaultyReliable(seed);
    ReplicationOptions rep;
    rep.num_replicas = 3;
    rep.num_clients = 2;
    rep.read_policy = ReadPolicy::kReadYourWrites;
    rep.reads = 30;
    rep.heartbeat_rounds = 10;
    rep.heartbeat_loss_rate = 0.0;
    Result<std::unique_ptr<ReplicatedSimulation>> made =
        ReplicatedSimulation::Create(initial, *view, Algorithm::kEca,
                                     sim_options, rep);
    ASSERT_TRUE(made.ok()) << made.status();
    ReplicatedSimulation* sim = made->get();

    std::vector<Update> script;
    for (int i = 0; i < 10; ++i) {
      script.push_back(Update::Insert("r1", Tuple::Ints({100 + i, i})));
    }
    sim->SetUpdateScript(script);

    int served_reads = 0;
    sim->SetReadObserver([&](int client, const ReadResult& result,
                             const Replica* replica) {
      if (!result.served) {
        return;
      }
      ++served_reads;
      // RYW contract: a served read sees every one of the client's own
      // (necessarily settled — otherwise the read would have been
      // refused) updates executed so far.
      const uint64_t executed = sim->lead().updates_executed();
      for (uint64_t i = 0; i < executed; ++i) {
        if (static_cast<int>(i % 2) != client) {
          continue;
        }
        Tuple t = Tuple::Ints({100 + static_cast<int64_t>(i),
                               static_cast<int64_t>(i)});
        EXPECT_GE(replica->view().CountOf(t), 1)
            << "seed " << seed << ": client " << client
            << " served a view missing its own update " << t.ToString();
      }
    });

    RandomReplicatedPolicy policy(seed);
    Status run = RunReplicatedToQuiescence(sim, &policy);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run;
    EXPECT_GT(served_reads, 0) << "seed " << seed;
    EXPECT_TRUE(sim->ConvergenceNow().converged) << "seed " << seed;
  }
}

TEST(ReplicationTest, BoundedStalenessNeverExceedsBound) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SimulationOptions sim_options;
    sim_options.fault = FaultyReliable(seed);
    ReplicationOptions rep;
    rep.num_replicas = 3;
    rep.read_policy = ReadPolicy::kBoundedStaleness;
    rep.staleness_bound = 3;
    rep.reads = 40;
    rep.heartbeat_rounds = 10;
    rep.heartbeat_loss_rate = 0.0;
    ReplicatedFixture f =
        MakeReplicated(Algorithm::kEca, seed, sim_options, rep);
    RandomReplicatedPolicy policy(seed);
    ASSERT_TRUE(RunReplicatedToQuiescence(f.sim.get(), &policy).ok())
        << "seed " << seed;

    int served = 0;
    for (const ReadResult& read : f.sim->read_log()) {
      if (read.served) {
        ++served;
        EXPECT_LE(read.lag, rep.staleness_bound) << "seed " << seed;
      }
    }
    EXPECT_GT(served, 0) << "seed " << seed;
    EXPECT_LE(f.sim->router().stats().max_lag, rep.staleness_bound);
  }
}

TEST(ReplicationTest, HeartbeatsAreMeteredBesideNotInsidePaperCounters) {
  // Deterministic fixed-priority schedule: heartbeat rounds are deferred
  // to the end, so the data-plane interleaving (and hence the lead's M/B)
  // is IDENTICAL with and without them — the comparison is exact, not
  // statistical.
  auto run = [&](int heartbeat_rounds) {
    SimulationOptions sim_options;  // clean transport: byte-identical runs
    ReplicationOptions rep;
    rep.num_replicas = 3;
    rep.heartbeat_rounds = heartbeat_rounds;
    rep.heartbeat_loss_rate = 0.0;
    ReplicatedFixture f =
        MakeReplicated(Algorithm::kEca, 3, sim_options, rep);
    for (int guard = 0; guard < 1000000 && !f.sim->Quiescent(); ++guard) {
      std::vector<RepAction> enabled = f.sim->EnabledActions();
      EXPECT_FALSE(enabled.empty());
      RepAction choice = enabled.front();
      for (const RepAction& action : enabled) {
        if (action.kind != RepAction::Kind::kHeartbeatRound) {
          choice = action;
          break;
        }
      }
      EXPECT_TRUE(f.sim->Step(choice).ok());
    }
    EXPECT_TRUE(f.sim->Quiescent());
    return std::move(f.sim);
  };
  std::unique_ptr<ReplicatedSimulation> without = run(0);
  std::unique_ptr<ReplicatedSimulation> with = run(12);

  // The paper's M and B are untouched by heartbeat traffic.
  EXPECT_EQ(with->lead().meter().messages(), without->lead().meter().messages());
  EXPECT_EQ(with->lead().meter().bytes_transferred(),
            without->lead().meter().bytes_transferred());
  EXPECT_EQ(with->lead().meter().heartbeat_messages(), 0);
  EXPECT_EQ(without->group_meter().heartbeat_messages(), 0);
  // Every beat of every round was charged to the group-plane meter: 3
  // in-group replicas beating for 12 rounds.
  EXPECT_EQ(with->group_meter().heartbeat_messages(), 12 * 3);
  EXPECT_EQ(with->monitor().rounds(), 12);
}

TEST(ReplicationTest, SingleReplicaGroupConverges) {
  SimulationOptions sim_options;
  sim_options.fault = FaultyReliable(5);
  ReplicationOptions rep;
  rep.num_replicas = 1;
  rep.reads = 5;
  rep.read_policy = ReadPolicy::kBoundedStaleness;
  rep.staleness_bound = 100;
  ReplicatedFixture f = MakeReplicated(Algorithm::kEca, 5, sim_options, rep);
  RandomReplicatedPolicy policy(5);
  ASSERT_TRUE(RunReplicatedToQuiescence(f.sim.get(), &policy).ok());
  EXPECT_TRUE(f.sim->ConvergenceNow().converged);
  EXPECT_EQ(f.sim->replica(0).view(), f.sim->lead().warehouse_view());
}

TEST(ReplicationTest, OutOfRangeReplicaRejected) {
  ReplicationOptions rep;
  rep.num_replicas = 2;
  ReplicatedFixture f =
      MakeReplicated(Algorithm::kEca, 3, SimulationOptions(), rep, 4);
  for (int r : {-1, f.sim->num_replicas()}) {
    EXPECT_FALSE(f.sim->CanReplicaApply(r)) << r;
    EXPECT_FALSE(f.sim->CanCatchUp(r)) << r;
    EXPECT_EQ(f.sim->StepReplicaApply(r).code(), StatusCode::kOutOfRange)
        << r;
    EXPECT_EQ(f.sim->StepCatchUp(r).code(), StatusCode::kOutOfRange) << r;
    EXPECT_EQ(f.sim->Step({RepAction::Kind::kReplicaApply, r}).code(),
              StatusCode::kOutOfRange)
        << r;
    EXPECT_EQ(f.sim->Step({RepAction::Kind::kCatchUpStep, r}).code(),
              StatusCode::kOutOfRange)
        << r;
    EXPECT_EQ(f.sim->CrashReplica(r).code(), StatusCode::kOutOfRange) << r;
    EXPECT_EQ(f.sim->RejoinReplica(r).code(), StatusCode::kOutOfRange) << r;
  }
  // The rejected calls left the group intact.
  RandomReplicatedPolicy policy(3);
  ASSERT_TRUE(RunReplicatedToQuiescence(f.sim.get(), &policy).ok());
  EXPECT_TRUE(f.sim->ConvergenceNow().converged);
}

TEST(ReplicationTest, RequiresReliableTransportWhenFaulty) {
  Random rng(1);
  Result<Workload> workload = MakeExample6Workload(Example6Config{20, 2}, &rng);
  ASSERT_TRUE(workload.ok());
  SimulationOptions sim_options;
  sim_options.fault.enabled = true;
  sim_options.fault.reliable = false;
  sim_options.fault.drop_rate = 0.1;
  Result<std::unique_ptr<ReplicatedSimulation>> sim =
      ReplicatedSimulation::Create(workload->initial, workload->view,
                                   Algorithm::kEca, sim_options,
                                   ReplicationOptions{});
  EXPECT_FALSE(sim.ok());
}

}  // namespace
}  // namespace wvm
