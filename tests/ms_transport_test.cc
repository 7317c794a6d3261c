// Multi-source maintenance over the transport layer: the Section 7
// schedules composed with faulty wires, asymmetric per-direction fault
// schedules, site crashes, and on-disk (kFile) journals. This is the
// integration surface the transport and recovery subsystems exist for:
//
//   * with faults disabled the transport is a passthrough — seeded runs
//     are byte-identical to the plain-channel system;
//   * under reliable faulty links (drop/dup/reorder/delay) MsEcaSnapshot
//     keeps its strong-consistency guarantee on every interleaving;
//   * a lossy uplink with a clean downlink (and vice versa, via the ack
//     overrides) still converges — asymmetry is absorbed by the protocol;
//   * warehouse crashes recover by genesis replay and source crashes by
//     journal-driven re-enqueue, at every sampled crash point, including
//     over real WAL segment files.
#include "multisource/ms_simulation.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "consistency/checker.h"
#include "multisource/ms_eca.h"
#include "multisource/ms_eca_snapshot.h"
#include "test_util.h"

namespace wvm {
namespace {

// --- Fixtures (same shapes the plain multisource tests use) ---------------

struct TwoSourceFixture {
  std::vector<Catalog> per_source;
  ViewDefinitionPtr view;

  static TwoSourceFixture Make() {
    TwoSourceFixture f;
    Schema s1 = Schema::Ints({"W", "X"});
    Schema s2 = Schema::Ints({"X", "Y"});
    Catalog a, b;
    EXPECT_TRUE(a.DefineWithData({"r1", s1},
                                 Relation::FromTuples(
                                     s1, {Tuple::Ints({1, 2})}))
                    .ok());
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

Status ScriptTwoSources(MsSimulation& sim) {
  Status s = sim.SetUpdateScript(
      0, {Update::Insert("r1", Tuple::Ints({4, 2})),
          Update::Delete("r1", Tuple::Ints({1, 2})),
          Update::Insert("r1", Tuple::Ints({8, 3}))});
  if (!s.ok()) return s;
  return sim.SetUpdateScript(
      1, {Update::Insert("r2", Tuple::Ints({2, 9})),
          Update::Insert("r2", Tuple::Ints({3, 4})),
          Update::Delete("r2", Tuple::Ints({2, 5}))});
}

Status ScriptThreeSources(MsSimulation& sim) {
  Status s = sim.SetUpdateScript(
      0, {Update::Insert("r1", Tuple::Ints({9, 2})),
          Update::Delete("r1", Tuple::Ints({1, 2}))});
  if (!s.ok()) return s;
  s = sim.SetUpdateScript(1, {Update::Insert("r2", Tuple::Ints({2, 6})),
                              Update::Delete("r2", Tuple::Ints({2, 5}))});
  if (!s.ok()) return s;
  return sim.SetUpdateScript(
      2, {Update::Insert("r3", Tuple::Ints({6, 1})),
          Update::Delete("r3", Tuple::Ints({5, 7}))});
}

// --- Fault schedules ------------------------------------------------------

FaultConfig ReliableFaults(uint64_t seed) {
  FaultConfig f;
  f.enabled = true;
  f.reliable = true;
  f.seed = seed;
  f.drop_rate = 0.25;
  f.duplicate_rate = 0.2;
  f.reorder_rate = 0.3;
  f.max_delay_ticks = 2;
  f.retransmit_timeout_ticks = 6;
  return f;
}

FaultConfig CleanReliable(uint64_t seed) {
  FaultConfig f;
  f.enabled = true;
  f.reliable = true;
  f.seed = seed;
  f.max_delay_ticks = 1;
  f.retransmit_timeout_ticks = 6;
  return f;
}

// Clean downlink carrying lossy acks; heavily lossy uplink with clean
// acks — both directions asymmetric at once.
MsSimulationOptions AsymmetricOptions(uint64_t seed) {
  MsSimulationOptions options;
  options.fault = CleanReliable(seed);
  options.fault.ack.drop_rate = 0.3;
  FaultConfig up = ReliableFaults(seed * 977 + 5);
  up.drop_rate = 0.35;
  up.ack.drop_rate = 0.0;
  up.ack.max_delay_ticks = 0;
  options.fault_up = up;
  return options;
}

// --- A crash-capable random driver ----------------------------------------
// RunRandom never crashes a site, so sweeps that want a mid-schedule crash
// drive the simulation themselves: uniform choice over EnabledActions(),
// with one crash/restart injected after `crash_at` steps (or at
// quiescence, whichever comes first — so every sampled point fires). A
// crashed site is never quiescent, so the driver always restarts it.

Status Dispatch(MsSimulation& sim, const MsAction& action) {
  switch (action.kind) {
    case MsAction::Kind::kSourceUpdate:
      return sim.StepSourceUpdate(action.source);
    case MsAction::Kind::kSourceAnswer:
      return sim.StepSourceAnswer(action.source);
    case MsAction::Kind::kWarehouseStep:
      return sim.StepWarehouse(action.source);
    case MsAction::Kind::kTransportTick:
      return sim.StepTransportTick();
  }
  return Status::Internal("unknown action kind");
}

struct CrashPlan {
  bool warehouse = true;  // else crash `victim`
  size_t victim = 0;
  int crash_at = 0;   // schedule steps before the crash
  int downtime = 4;   // bounded actions taken while the site is down
};

Status DriveWithCrash(MsSimulation& sim, uint64_t seed,
                      const CrashPlan& plan) {
  Random rng(seed * 7919 + 11);
  int steps = 0;
  bool crashed = false;
  // Generous cap: every test schedule quiesces in far fewer actions.
  for (int guard = 0; guard < 20000; ++guard) {
    if (!crashed && (steps >= plan.crash_at || sim.Quiescent())) {
      Status s = plan.warehouse ? sim.CrashWarehouse()
                                : sim.CrashSource(plan.victim);
      if (!s.ok()) return s;
      for (int i = 0; i < plan.downtime; ++i) {
        std::vector<MsAction> down = sim.EnabledActions();
        if (down.empty()) break;
        s = Dispatch(sim, down[rng.Uniform(down.size())]);
        if (!s.ok()) return s;
      }
      s = plan.warehouse ? sim.RestartWarehouse()
                         : sim.RestartSource(plan.victim);
      if (!s.ok()) return s;
      crashed = true;
      continue;
    }
    if (sim.Quiescent()) return Status::OK();
    std::vector<MsAction> actions = sim.EnabledActions();
    if (actions.empty()) {
      return Status::Internal("not quiescent but no enabled actions");
    }
    Status s = Dispatch(sim, actions[rng.Uniform(actions.size())]);
    if (!s.ok()) return s;
    ++steps;
  }
  return Status::Internal("schedule did not quiesce within the step guard");
}

void ExpectConverged(MsSimulation& sim, const std::string& label) {
  EXPECT_TRUE(sim.maintainer().IsQuiescent()) << label;
  Result<Relation> global = sim.GlobalViewNow();
  ASSERT_TRUE(global.ok()) << label << ": " << global.status();
  EXPECT_EQ(sim.warehouse_view(), *global) << label;
  EXPECT_TRUE(CheckConsistency(sim.state_log()).convergent) << label;
}

// --- 1. Passthrough: faults off == no transport at all --------------------

TEST(MsTransportTest, DisabledFaultsAreAByteIdenticalPassthrough) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{17}}) {
    TwoSourceFixture f1 = TwoSourceFixture::Make();
    Result<std::unique_ptr<MsSimulation>> plain = MsSimulation::Create(
        f1.per_source, f1.view, std::make_unique<MsEca>(f1.view));
    ASSERT_TRUE(plain.ok());
    TwoSourceFixture f2 = TwoSourceFixture::Make();
    MsSimulationOptions options;  // fault.enabled == false
    Result<std::unique_ptr<MsSimulation>> routed = MsSimulation::Create(
        f2.per_source, f2.view, std::make_unique<MsEca>(f2.view), options);
    ASSERT_TRUE(routed.ok());
    ASSERT_TRUE(ScriptTwoSources(**plain).ok());
    ASSERT_TRUE(ScriptTwoSources(**routed).ok());
    ASSERT_TRUE((*plain)->RunRandom(seed).ok());
    ASSERT_TRUE((*routed)->RunRandom(seed).ok());
    EXPECT_EQ((*plain)->warehouse_view(), (*routed)->warehouse_view());
    TransportStats stats = (*routed)->transport_stats();
    EXPECT_EQ(stats.link.frames_dropped, 0);
    EXPECT_EQ(stats.protocol.retransmitted_frames, 0);
    EXPECT_EQ((*routed)->wal_stats().appends, 0);
    EXPECT_EQ((*routed)->wal_dir(), "");
  }
}

// --- 2. Reliable faulty wires under the Section 7 schedules ---------------

TEST(MsTransportTest, SnapshotMaintainerStaysStronglyConsistentUnderFaults) {
  int64_t total_drops = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ThreeSourceFixture f = ThreeSourceFixture::Make();
    MsSimulationOptions options;
    options.fault = ReliableFaults(seed);
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(ScriptThreeSources(**sim).ok());
    ASSERT_TRUE((*sim)->RunRandom(seed).ok());
    ConsistencyReport report = CheckConsistency((*sim)->state_log());
    EXPECT_TRUE(report.strongly_consistent)
        << "seed " << seed << ": " << report.ToString();
    ExpectConverged(**sim, "seed " + std::to_string(seed));
    total_drops += (*sim)->transport_stats().link.frames_dropped;
  }
  // The sweep must actually have exercised the fault schedule.
  EXPECT_GT(total_drops, 0);
}

TEST(MsTransportTest, EcaConvergesOnTwoSourcesOverFaultyWires) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    MsSimulationOptions options;
    options.fault = ReliableFaults(seed * 31 + 7);
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEca>(f.view), options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(ScriptTwoSources(**sim).ok());
    ASSERT_TRUE((*sim)->RunRandom(seed).ok());
    ExpectConverged(**sim, "seed " + std::to_string(seed));
  }
}

// --- 3. Asymmetric schedules: lossy uplink, clean downlink, lossy acks ----

TEST(MsTransportTest, AsymmetricLinksAreAbsorbedByTheProtocol) {
  int64_t uplink_drops = 0;
  int64_t retransmits = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ThreeSourceFixture f = ThreeSourceFixture::Make();
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        AsymmetricOptions(seed));
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(ScriptThreeSources(**sim).ok());
    ASSERT_TRUE((*sim)->RunRandom(seed).ok());
    EXPECT_TRUE(CheckConsistency((*sim)->state_log()).strongly_consistent)
        << "seed " << seed;
    ExpectConverged(**sim, "seed " + std::to_string(seed));
    TransportStats stats = (*sim)->transport_stats();
    uplink_drops += stats.link.frames_dropped;
    retransmits += stats.protocol.retransmitted_frames;
  }
  EXPECT_GT(uplink_drops, 0);
  EXPECT_GT(retransmits, 0);
}

// --- 4. Guard rails -------------------------------------------------------

TEST(MsTransportTest, GuardRailsRejectInconsistentOptions) {
  TwoSourceFixture f = TwoSourceFixture::Make();

  {  // fault_up must agree on `enabled`.
    MsSimulationOptions options;
    options.fault = ReliableFaults(1);
    FaultConfig up;  // disabled
    options.fault_up = up;
    EXPECT_EQ(MsSimulation::Create(f.per_source, f.view,
                                   std::make_unique<MsEca>(f.view), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  {  // ... and on `reliable`.
    MsSimulationOptions options;
    options.fault = ReliableFaults(1);
    FaultConfig up = ReliableFaults(2);
    up.reliable = false;
    options.fault_up = up;
    EXPECT_EQ(MsSimulation::Create(f.per_source, f.view,
                                   std::make_unique<MsEca>(f.view), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  {  // Recovery needs the reliable protocol underneath (the same check and
     // message as Simulation's).
    MsSimulationOptions options;
    options.fault = ReliableFaults(1);
    options.fault.reliable = false;
    options.recovery.enabled = true;
    Status status = MsSimulation::Create(f.per_source, f.view,
                                         std::make_unique<MsEca>(f.view),
                                         options)
                        .status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "recovery requires the reliable transport mode");
  }
  {  // kFile journals without recovery make no sense.
    MsSimulationOptions options;
    options.fault = ReliableFaults(1);
    options.recovery.backend = JournalBackend::kFile;
    Status status = MsSimulation::Create(f.per_source, f.view,
                                         std::make_unique<MsEca>(f.view),
                                         options)
                        .status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(),
              "the file journal backend requires recovery to be enabled");
  }
  {  // Genesis replay takes no checkpoints: no interval is accepted.
    MsSimulationOptions options;
    options.fault = ReliableFaults(1);
    options.recovery.enabled = true;
    options.recovery.checkpoint_every = 3;
    EXPECT_EQ(MsSimulation::Create(f.per_source, f.view,
                                   std::make_unique<MsEca>(f.view), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  {  // Crash-restart is gated on reliable transport + recovery.
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEca>(f.view));
    ASSERT_TRUE(sim.ok());
    EXPECT_FALSE((*sim)->CanCrashWarehouse());
    EXPECT_EQ((*sim)->CrashWarehouse().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ((*sim)->CrashSource(0).code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(MsTransportTest, DoubleCrashAndSpuriousRestartAreRejected) {
  TwoSourceFixture f = TwoSourceFixture::Make();
  MsSimulationOptions options;
  options.fault = CleanReliable(1);
  options.recovery.enabled = true;
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      f.per_source, f.view, std::make_unique<MsEca>(f.view), options);
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_EQ((*sim)->RestartWarehouse().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*sim)->CrashWarehouse().ok());
  EXPECT_FALSE((*sim)->warehouse_up());
  EXPECT_FALSE((*sim)->Quiescent());  // a crashed site is never quiescent
  EXPECT_EQ((*sim)->CrashWarehouse().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*sim)->RestartWarehouse().ok());
  EXPECT_TRUE((*sim)->warehouse_up());
}

// --- 5. Crash sweeps: genesis replay at every sampled point ---------------

TEST(MsTransportTest, WarehouseCrashSweepRecoversByGenesisReplay) {
  for (int crash_at = 0; crash_at <= 24; crash_at += 3) {
    ThreeSourceFixture f = ThreeSourceFixture::Make();
    MsSimulationOptions options;
    options.fault = ReliableFaults(100 + crash_at);
    options.recovery.enabled = true;
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(ScriptThreeSources(**sim).ok());
    CrashPlan plan;
    plan.warehouse = true;
    plan.crash_at = crash_at;
    plan.downtime = 2 + crash_at % 5;
    Status run = DriveWithCrash(**sim, 100 + crash_at, plan);
    ASSERT_TRUE(run.ok()) << "crash_at " << crash_at << ": " << run;
    EXPECT_TRUE(CheckConsistency((*sim)->state_log()).strongly_consistent)
        << "crash_at " << crash_at;
    ExpectConverged(**sim, "crash_at " + std::to_string(crash_at));
  }
}

TEST(MsTransportTest, SourceCrashMidFlightStillConverges) {
  for (uint64_t seed = 1; seed <= 9; ++seed) {
    ThreeSourceFixture f = ThreeSourceFixture::Make();
    MsSimulationOptions options;
    options.fault = ReliableFaults(seed * 13 + 2);
    options.recovery.enabled = true;
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(ScriptThreeSources(**sim).ok());
    CrashPlan plan;
    plan.warehouse = false;
    plan.victim = seed % 3;
    plan.crash_at = static_cast<int>(seed * 2);
    plan.downtime = 3;
    Status run = DriveWithCrash(**sim, seed, plan);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run;
    ExpectConverged(**sim, "seed " + std::to_string(seed));
  }
}

// --- 6. The full stack: kFile journals + asymmetric wire + crash ----------

TEST(MsTransportTest, FileJournalsPlusAsymmetryPlusCrashEndToEnd) {
  std::string wal_dir;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    TwoSourceFixture f = TwoSourceFixture::Make();
    MsSimulationOptions options = AsymmetricOptions(seed * 41 + 3);
    options.recovery.enabled = true;
    options.recovery.backend = JournalBackend::kFile;
    options.recovery.wal.segment_bytes = 1 << 12;
    options.recovery.wal.flush_appends = 2;
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(ScriptTwoSources(**sim).ok());
    wal_dir = (*sim)->wal_dir();
    ASSERT_FALSE(wal_dir.empty());
    EXPECT_TRUE(std::filesystem::exists(wal_dir));
    CrashPlan plan;
    plan.warehouse = true;
    plan.crash_at = static_cast<int>(seed * 4);
    plan.downtime = 3;
    Status run = DriveWithCrash(**sim, seed, plan);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run;
    ExpectConverged(**sim, "seed " + std::to_string(seed));
    WalStats wal = (*sim)->wal_stats();
    EXPECT_GT(wal.appends, 0) << "seed " << seed;
    EXPECT_GT(wal.fsyncs, 0) << "seed " << seed;
    EXPECT_GT(wal.appended_bytes, 0) << "seed " << seed;
    sim->reset();  // the owned temp directory dies with the simulation
    EXPECT_FALSE(std::filesystem::exists(wal_dir));
  }
}

TEST(MsTransportTest, CallerWalDirectoryIsUsedAndKept) {
  ScratchDir dir;
  {
    TwoSourceFixture f = TwoSourceFixture::Make();
    MsSimulationOptions options = AsymmetricOptions(5);
    options.recovery.enabled = true;
    options.recovery.backend = JournalBackend::kFile;
    options.recovery.wal_dir = dir.path();
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    EXPECT_EQ((*sim)->wal_dir(), dir.path());
    ASSERT_TRUE(ScriptTwoSources(**sim).ok());
    ASSERT_TRUE((*sim)->RunRandom(5).ok());
    ExpectConverged(**sim, "caller wal_dir");
  }
  // Every journal wrote its segments there, and the directory outlives a
  // simulation that did not make it.
  EXPECT_EQ(dir.WalNames(),
            (std::set<std::string>{"consumed", "src-0-in", "src-0-out",
                                   "src-1-in", "src-1-out", "wh-0-in",
                                   "wh-0-out", "wh-1-in", "wh-1-out"}));
}

TEST(MsTransportTest, TempWalDirectoryIsRemovedWhenCreateFails) {
  TwoSourceFixture f = TwoSourceFixture::Make();
  // Both sources claim r1: Create fails building the ownership map, after
  // it made the WAL directory.
  f.per_source[1] = f.per_source[0].Clone();
  ScratchDir tmp;
  {
    ScopedTmpdir scope(tmp.path());
    MsSimulationOptions options = AsymmetricOptions(5);
    options.recovery.enabled = true;
    options.recovery.backend = JournalBackend::kFile;
    Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
        f.per_source, f.view, std::make_unique<MsEcaSnapshot>(f.view),
        options);
    EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument)
        << sim.status();
  }
  EXPECT_TRUE(tmp.empty()) << "a failed Create leaked its temp WAL directory";
}

}  // namespace
}  // namespace wvm
