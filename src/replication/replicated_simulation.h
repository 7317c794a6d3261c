#ifndef WVM_REPLICATION_REPLICATED_SIMULATION_H_
#define WVM_REPLICATION_REPLICATED_SIMULATION_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "consistency/checker.h"
#include "replication/heartbeat.h"
#include "replication/read_router.h"
#include "replication/replica.h"
#include "replication/sequencer.h"
#include "sim/policies.h"
#include "sim/simulation.h"

namespace wvm {

struct ReplicationOptions {
  int num_replicas = 3;
  int num_clients = 2;

  ReadPolicy read_policy = ReadPolicy::kReadYourWrites;
  /// Max LSN lag a bounded-staleness read tolerates.
  uint64_t staleness_bound = 4;
  /// Client-read budget: how many kClientRead events the schedule performs
  /// (interleaved by the policy; refused reads consume budget too, so the
  /// all-replicas-suspect degenerate case cannot wedge the run).
  int reads = 0;
  /// Heartbeat-round budget, interleaved the same way.
  int heartbeat_rounds = 0;

  int suspect_after = 2;
  int evict_after = 4;
  /// Beat-loss probability on the monitor's control channel; negative
  /// inherits the data plane's FaultConfig::drop_rate.
  double heartbeat_loss_rate = -1.0;
  uint64_t heartbeat_seed = 1;

  /// Replica auto-checkpoint cadence (messages applied per checkpoint;
  /// 0 = only the initial checkpoint and explicit calls).
  int checkpoint_every = 8;
  /// Messages a kCatchUpStep applies at most.
  int catch_up_batch = 4;
};

/// One atomic event of the replicated tier. The first four wrap the lead
/// simulation's own actions; the rest are replication-only.
struct RepAction {
  enum class Kind {
    kSourceUpdate,    // lead: S_up
    kSourceAnswer,    // lead: S_qu
    kLeadStep,        // lead: W_up / W_ans (fires the sequencing tap)
    kTransportTick,   // time passes: lead channels + broadcast endpoints
    kReplicaApply,    // replica consumes one broadcast message
    kCatchUpStep,     // catching-up replica applies a journal/history batch
    kHeartbeatRound,  // one failure-detector round over the group
    kClientRead,      // one client read through the router
    kNone,
  };

  Kind kind = Kind::kNone;
  int replica = -1;  // for kReplicaApply / kCatchUpStep

  static const char* KindName(Kind kind);
};

/// The replicated warehouse tier (DESIGN.md Section 2g): a lead Simulation
/// (unchanged single-source/single-warehouse system) whose consumption
/// order a Sequencer stamps and broadcasts to N Replicas, plus the
/// HeartbeatMonitor that evicts silent replicas and the ReadRouter that
/// serves client reads under a staleness policy.
///
/// Everything nondeterministic stays policy-driven, exactly like the
/// single-site simulator: the enabled-action surface below is what a
/// ReplicatedPolicy chooses from. Crashes and rejoins are driver-injected
/// (CrashReplica / RejoinReplica) — the schedule decides WHEN, the tier
/// implements WHAT: eviction detaches the replica's broadcast endpoint,
/// and rejoin runs checkpoint-restore + journal-replay catch-up until the
/// replica reaches the head, at which point its endpoint reattaches with
/// per-channel sequence numbers equal to global LSNs.
class ReplicatedSimulation {
 public:
  static Result<std::unique_ptr<ReplicatedSimulation>> Create(
      const Catalog& initial, ViewDefinitionPtr view, Algorithm algorithm,
      SimulationOptions sim_options, const ReplicationOptions& rep_options);

  ReplicatedSimulation(const ReplicatedSimulation&) = delete;
  ReplicatedSimulation& operator=(const ReplicatedSimulation&) = delete;

  /// Forwarded to the lead simulation (see Simulation::SetUpdateScript).
  void SetUpdateScript(std::vector<Update> script);

  Simulation& lead() { return *lead_; }
  const Simulation& lead() const { return *lead_; }
  Sequencer& sequencer() { return sequencer_; }
  const Sequencer& sequencer() const { return sequencer_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  Replica& replica(int r) { return *replicas_[r]; }
  const Replica& replica(int r) const { return *replicas_[r]; }
  HeartbeatMonitor& monitor() { return monitor_; }
  const HeartbeatMonitor& monitor() const { return monitor_; }
  ReadRouter& router() { return router_; }
  const ReadRouter& router() const { return router_; }

  /// Group-plane meter: heartbeat traffic lands here, beside — never
  /// inside — the lead's paper M/B counters.
  const CostMeter& group_meter() const { return group_meter_; }

  /// Replication-plane trace (heartbeats, evictions, rejoins, reads,
  /// replica crashes); the lead keeps its own trace.
  const Trace& trace() const { return trace_; }

  int reads_remaining() const { return reads_remaining_; }
  int heartbeat_rounds_remaining() const { return heartbeat_rounds_remaining_; }
  const std::vector<ReadResult>& read_log() const { return read_log_; }

  /// Observer invoked for every routed read: (client, result, replica that
  /// served it — nullptr when refused), called before the read completes so
  /// the served replica's view is exactly what the client saw.
  void SetReadObserver(
      std::function<void(int, const ReadResult&, const Replica*)> observer) {
    read_observer_ = std::move(observer);
  }

  // --- Enabled-action surface ----------------------------------------------

  bool CanSourceUpdate() const { return lead_->CanSourceUpdate(); }
  bool CanSourceAnswer() const { return lead_->CanSourceAnswer(); }
  bool CanLeadStep() const { return lead_->CanWarehouseStep(); }
  bool CanTransportTick() const {
    return lead_->CanTransportTick() || sequencer_.HasTimedWork();
  }
  // A replica index outside [0, num_replicas()) is rejected: the Step*,
  // CrashReplica and RejoinReplica methods return OutOfRange, the Can*
  // queries return false.
  bool CanReplicaApply(int r) const;
  bool CanCatchUp(int r) const;
  bool CanHeartbeatRound() const { return heartbeat_rounds_remaining_ > 0; }
  bool CanClientRead() const { return reads_remaining_ > 0; }

  /// All currently enabled actions, in a fixed order (for policies).
  std::vector<RepAction> EnabledActions() const;

  Status StepSourceUpdate();
  Status StepSourceAnswer();
  Status StepLeadStep();
  Status StepTransportTick();
  Status StepReplicaApply(int r);
  Status StepCatchUp(int r);
  Status StepHeartbeatRound();
  Status StepClientRead();

  /// Performs `action`; kNone is an error.
  Status Step(RepAction action);

  // --- Driver-injected failures --------------------------------------------

  /// Fail-stop crash of replica `r`: volatile state gone, journal and
  /// checkpoint survive, its endpoint's receiver half goes down (frames
  /// sent to it are lost, NOT journaled). Pre: up.
  Status CrashReplica(int r);

  /// Starts replica `r`'s rejoin: detach its endpoint, take it out of the
  /// failure detector, restore the checkpoint if it was down. Catch-up
  /// steps then replay journal + history; reaching the head reattaches the
  /// endpoint and restores group membership. Pre: down or evicted.
  Status RejoinReplica(int r);

  /// Everything drained: the lead is quiescent, the broadcast plane has no
  /// timed work or undelivered frames, every replica is up, in group, and
  /// at the head, and the read/heartbeat budgets are spent.
  bool Quiescent() const;

  /// Convergence of the replica group against the lead, right now.
  ReplicaConvergenceReport ConvergenceNow() const;

 private:
  ReplicatedSimulation(const ReplicationOptions& options)
      : options_(options),
        monitor_(options.num_replicas,
                 HeartbeatConfig{options.suspect_after, options.evict_after,
                                 options.heartbeat_loss_rate,
                                 options.heartbeat_seed}),
        router_(options.num_replicas, options.num_clients,
                options.read_policy, options.staleness_bound),
        reads_remaining_(options.reads),
        heartbeat_rounds_remaining_(options.heartbeat_rounds) {}

  /// The sequencing point: called by the lead for every consumed message.
  void OnLeadConsumed(const SourceMessage& m);

  /// Settles pending writes once every executed notification is consumed
  /// and the lead maintainer is quiescent (all effects in the view).
  void MaybeSettleWrites();

  /// Advances the group history floor to the lowest checkpoint floor.
  Status TrimHistory();

  /// Whether replica `r` may serve reads right now.
  bool Serving(int r) const;

  /// OutOfRange unless 0 <= r < num_replicas().
  Status CheckReplica(int r) const;

  ReplicationOptions options_;
  std::unique_ptr<Simulation> lead_;
  Sequencer sequencer_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  HeartbeatMonitor monitor_;
  ReadRouter router_;
  CostMeter group_meter_;
  Trace trace_;

  uint64_t batches_executed_ = 0;       // source-side: one write each
  uint64_t notifications_consumed_ = 0; // lead-side: stamped notifications
  int reads_remaining_;
  int heartbeat_rounds_remaining_;
  int64_t reads_issued_ = 0;
  std::vector<ReadResult> read_log_;
  std::function<void(int, const ReadResult&, const Replica*)> read_observer_;
};

/// Chooses the next atomic event of the replicated tier.
class ReplicatedPolicy {
 public:
  virtual ~ReplicatedPolicy() = default;
  virtual RepAction Next(const ReplicatedSimulation& sim) = 0;
};

/// Uniformly random choice among the enabled actions; seeded and
/// reproducible — the replication convergence tests sweep seeds with this.
class RandomReplicatedPolicy : public ReplicatedPolicy {
 public:
  explicit RandomReplicatedPolicy(uint64_t seed) : rng_(seed) {}
  RepAction Next(const ReplicatedSimulation& sim) override;

 private:
  Random rng_;
};

/// Runs `sim` to quiescence under `policy`. Errors if the policy returns
/// kNone while non-quiescent or the schedule exceeds `max_steps` (a stalled
/// run — e.g. a crashed replica that is never rejoined keeps the group
/// permanently short of the head).
Status RunReplicatedToQuiescence(ReplicatedSimulation* sim,
                                 ReplicatedPolicy* policy,
                                 int64_t max_steps = 2000000);

}  // namespace wvm

#endif  // WVM_REPLICATION_REPLICATED_SIMULATION_H_
