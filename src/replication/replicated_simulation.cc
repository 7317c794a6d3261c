#include "replication/replicated_simulation.h"

#include <variant>

#include "common/strings.h"

namespace wvm {

const char* RepAction::KindName(Kind kind) {
  switch (kind) {
    case Kind::kSourceUpdate:
      return "SourceUpdate";
    case Kind::kSourceAnswer:
      return "SourceAnswer";
    case Kind::kLeadStep:
      return "LeadStep";
    case Kind::kTransportTick:
      return "TransportTick";
    case Kind::kReplicaApply:
      return "ReplicaApply";
    case Kind::kCatchUpStep:
      return "CatchUpStep";
    case Kind::kHeartbeatRound:
      return "HeartbeatRound";
    case Kind::kClientRead:
      return "ClientRead";
    case Kind::kNone:
      return "None";
  }
  return "?";
}

Result<std::unique_ptr<ReplicatedSimulation>> ReplicatedSimulation::Create(
    const Catalog& initial, ViewDefinitionPtr view, Algorithm algorithm,
    SimulationOptions sim_options, const ReplicationOptions& rep_options) {
  if (rep_options.num_replicas < 1) {
    return Status::InvalidArgument("num_replicas must be >= 1");
  }
  if (rep_options.num_clients < 1) {
    return Status::InvalidArgument("num_clients must be >= 1");
  }
  if (rep_options.catch_up_batch < 1) {
    return Status::InvalidArgument("catch_up_batch must be >= 1");
  }
  // The broadcast plane needs the reliable protocol (its per-channel
  // sequence numbers ARE the LSNs). A fault-free caller gets a fault-free
  // reliable transport; a faulty caller must already be in reliable mode.
  if (!sim_options.fault.enabled) {
    sim_options.fault.enabled = true;
    sim_options.fault.reliable = true;
  } else if (!sim_options.fault.reliable) {
    return Status::InvalidArgument(
        "replication requires the reliable transport mode");
  }

  ReplicationOptions resolved = rep_options;
  if (resolved.heartbeat_loss_rate < 0) {
    resolved.heartbeat_loss_rate = sim_options.fault.drop_rate;
  }
  HeartbeatConfig hb{resolved.suspect_after, resolved.evict_after,
                     resolved.heartbeat_loss_rate, resolved.heartbeat_seed};
  WVM_RETURN_IF_ERROR(hb.Validate());

  auto rep =
      std::unique_ptr<ReplicatedSimulation>(new ReplicatedSimulation(resolved));

  WVM_ASSIGN_OR_RETURN(std::unique_ptr<ViewMaintainer> lead_maintainer,
                       MakeMaintainer({.algorithm = algorithm}, view));
  WVM_ASSIGN_OR_RETURN(
      rep->lead_, Simulation::Create(initial, view, std::move(lead_maintainer),
                                     sim_options));

  for (int r = 0; r < resolved.num_replicas; ++r) {
    WVM_ASSIGN_OR_RETURN(std::unique_ptr<Replica> replica,
                         Replica::Create(r, algorithm, view, initial,
                                         resolved.checkpoint_every));
    Replica* raw = replica.get();
    TransportHooks<SourceMessage> hooks;
    // Acked => journaled: the delivery hook runs when the endpoint accepts
    // a frame, before the replica can observe it, so every LSN the
    // sequencer considers delivered is durable at the replica.
    hooks.on_deliver = [raw](uint64_t lsn, const SourceMessage& m) {
      Status s = raw->mutable_journal().Append(lsn, m);
      WVM_REQUIRE(s.ok(), "replica journal append failed on delivery");
    };
    // Salts decorrelate each endpoint's fault stream from the lead's two
    // directions (which use small salts) and from each other.
    WVM_RETURN_IF_ERROR(
        rep->sequencer_
            .AddEndpoint(sim_options.fault, 1000 + static_cast<uint64_t>(r),
                         std::move(hooks))
            .status());
    rep->replicas_.push_back(std::move(replica));
  }

  ReplicatedSimulation* self = rep.get();
  rep->lead_->SetConsumedMessageTap(
      [self](const SourceMessage& m) { self->OnLeadConsumed(m); });
  return rep;
}

void ReplicatedSimulation::SetUpdateScript(std::vector<Update> script) {
  lead_->SetUpdateScript(std::move(script));
}

void ReplicatedSimulation::OnLeadConsumed(const SourceMessage& m) {
  const uint64_t lsn = sequencer_.head_lsn();
  Status s = sequencer_.Broadcast(m);
  WVM_REQUIRE(s.ok(), "sequencer broadcast failed");
  if (!std::holds_alternative<AnswerMessage>(m)) {
    // Notifications are consumed in execution order, so the i-th one is
    // batch i — authored by client i mod num_clients.
    const int client =
        static_cast<int>(notifications_consumed_ %
                         static_cast<uint64_t>(options_.num_clients));
    router_.NoteWrite(client, lsn);
    ++notifications_consumed_;
  }
}

void ReplicatedSimulation::MaybeSettleWrites() {
  // Settled = every executed notification has been consumed (stamped) AND
  // the lead maintainer is quiescent, so each one's effect — including the
  // compensating answers ECA waits for — is installed in the view.
  if (notifications_consumed_ == batches_executed_ &&
      lead_->maintainer().IsQuiescent()) {
    router_.SettleWrites(sequencer_.head_lsn());
  }
}

Status ReplicatedSimulation::TrimHistory() {
  uint64_t floor = sequencer_.head_lsn();
  for (const auto& replica : replicas_) {
    // A replica without a checkpoint (never created — impossible after
    // Create) or with an old one pins the history at its floor: that is
    // the lowest LSN any future catch-up can start from.
    const uint64_t f =
        replica->checkpoint().has_value()
            ? replica->checkpoint()->consumed_floor
            : 0;
    floor = std::min(floor, f);
  }
  return sequencer_.TrimHistoryBelow(floor);
}

bool ReplicatedSimulation::Serving(int r) const {
  return replicas_[r]->up() &&
         replicas_[r]->membership() == ReplicaMembership::kInGroup &&
         monitor_.health(r) == ReplicaHealth::kLive;
}

Status ReplicatedSimulation::CheckReplica(int r) const {
  if (r < 0 || r >= num_replicas()) {
    return Status::OutOfRange("no such replica");
  }
  return Status::OK();
}

bool ReplicatedSimulation::CanReplicaApply(int r) const {
  return CheckReplica(r).ok() && replicas_[r]->up() &&
         replicas_[r]->membership() == ReplicaMembership::kInGroup &&
         sequencer_.channel(r).HasMessage();
}

bool ReplicatedSimulation::CanCatchUp(int r) const {
  // Catch-up covers both halves of a rejoin: closing the LSN gap and (once
  // at the head) reattaching. An up non-member always has one of the two
  // left to do.
  return CheckReplica(r).ok() && replicas_[r]->up() &&
         replicas_[r]->membership() != ReplicaMembership::kInGroup;
}

std::vector<RepAction> ReplicatedSimulation::EnabledActions() const {
  std::vector<RepAction> actions;
  if (CanSourceUpdate()) {
    actions.push_back({RepAction::Kind::kSourceUpdate, -1});
  }
  if (CanSourceAnswer()) {
    actions.push_back({RepAction::Kind::kSourceAnswer, -1});
  }
  if (CanLeadStep()) {
    actions.push_back({RepAction::Kind::kLeadStep, -1});
  }
  if (CanTransportTick()) {
    actions.push_back({RepAction::Kind::kTransportTick, -1});
  }
  for (int r = 0; r < num_replicas(); ++r) {
    if (CanReplicaApply(r)) {
      actions.push_back({RepAction::Kind::kReplicaApply, r});
    }
    if (CanCatchUp(r)) {
      actions.push_back({RepAction::Kind::kCatchUpStep, r});
    }
  }
  if (CanHeartbeatRound()) {
    actions.push_back({RepAction::Kind::kHeartbeatRound, -1});
  }
  if (CanClientRead()) {
    actions.push_back({RepAction::Kind::kClientRead, -1});
  }
  return actions;
}

Status ReplicatedSimulation::StepSourceUpdate() {
  const int client = static_cast<int>(
      batches_executed_ % static_cast<uint64_t>(options_.num_clients));
  WVM_RETURN_IF_ERROR(lead_->StepSourceUpdate());
  ++batches_executed_;
  // The write exists the moment the source executes it: from here until
  // settle, this client's RYW reads must refuse rather than risk serving a
  // view that predates the write.
  router_.NotePendingWrite(client);
  return Status::OK();
}

Status ReplicatedSimulation::StepSourceAnswer() {
  return lead_->StepSourceAnswer();
}

Status ReplicatedSimulation::StepLeadStep() {
  WVM_RETURN_IF_ERROR(lead_->StepWarehouse());
  MaybeSettleWrites();
  return Status::OK();
}

Status ReplicatedSimulation::StepTransportTick() {
  if (!CanTransportTick()) {
    return Status::FailedPrecondition("no transport work pending");
  }
  if (lead_->CanTransportTick()) {
    WVM_RETURN_IF_ERROR(lead_->StepTransportTick());
  }
  if (sequencer_.HasTimedWork()) {
    sequencer_.Tick();
  }
  return Status::OK();
}

Status ReplicatedSimulation::StepReplicaApply(int r) {
  WVM_RETURN_IF_ERROR(CheckReplica(r));
  if (!CanReplicaApply(r)) {
    return Status::FailedPrecondition("replica apply not enabled");
  }
  WVM_RETURN_IF_ERROR(replicas_[r]->ApplyFromChannel(sequencer_.channel(r)));
  return TrimHistory();
}

Status ReplicatedSimulation::StepCatchUp(int r) {
  WVM_RETURN_IF_ERROR(CheckReplica(r));
  if (!CanCatchUp(r)) {
    return Status::FailedPrecondition("catch-up not enabled");
  }
  Replica& rep = *replicas_[r];
  if (rep.membership() == ReplicaMembership::kEvicted) {
    // A spuriously evicted (up, state intact) replica starts its rejoin in
    // place: no restore needed, it only has to close the gap to the head.
    WVM_RETURN_IF_ERROR(rep.BeginRejoin());
  }
  WVM_RETURN_IF_ERROR(
      rep.CatchUpStep(sequencer_, options_.catch_up_batch).status());
  if (rep.applied_lsn() == sequencer_.head_lsn()) {
    sequencer_.Reattach(r);
    rep.set_membership(ReplicaMembership::kInGroup);
    monitor_.Restore(r);
    trace_.Add(TraceEvent::Kind::kRejoin,
               StrCat(rep.name(), " rejoined in group at LSN ",
                      rep.applied_lsn()));
  }
  return TrimHistory();
}

Status ReplicatedSimulation::StepHeartbeatRound() {
  if (!CanHeartbeatRound()) {
    return Status::FailedPrecondition("heartbeat budget exhausted");
  }
  std::vector<BeatInput> inputs(replicas_.size(), BeatInput::kBeat);
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r]->up()) {
      inputs[r] = BeatInput::kSilent;
    } else if (replicas_[r]->membership() != ReplicaMembership::kInGroup) {
      inputs[r] = BeatInput::kUnmonitored;
    }
  }
  std::vector<int> evicted = monitor_.Round(inputs, &group_meter_);
  --heartbeat_rounds_remaining_;
  trace_.Add(TraceEvent::Kind::kHeartbeat, monitor_.ToString());
  for (int e : evicted) {
    sequencer_.Detach(e);
    replicas_[e]->set_membership(ReplicaMembership::kEvicted);
    trace_.Add(TraceEvent::Kind::kEviction,
               StrCat(replicas_[e]->name(), " evicted after ",
                      monitor_.missed(e), " missed beats",
                      replicas_[e]->up() ? " (spurious: replica is up)"
                                         : ""));
  }
  return Status::OK();
}

Status ReplicatedSimulation::StepClientRead() {
  if (!CanClientRead()) {
    return Status::FailedPrecondition("read budget exhausted");
  }
  const int client = static_cast<int>(
      reads_issued_ % static_cast<int64_t>(options_.num_clients));
  ++reads_issued_;
  --reads_remaining_;
  std::vector<ServingProbe> probes(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    probes[r].applied_lsn = replicas_[r]->applied_lsn();
    probes[r].serving = Serving(static_cast<int>(r));
  }
  ReadResult result = router_.Route(client, sequencer_.head_lsn(), probes);
  const Replica* served = nullptr;
  if (result.served) {
    served = replicas_[result.replica].get();
    served->ServeRead();
  }
  if (read_observer_) {
    read_observer_(client, result, served);
  }
  trace_.Add(TraceEvent::Kind::kRead,
             result.served
                 ? StrCat("client ", client, " served by ", served->name(),
                          " at LSN ", result.applied_lsn, " (lag ",
                          result.lag, ")")
                 : StrCat("client ", client, " refused: ", result.refusal));
  read_log_.push_back(std::move(result));
  return Status::OK();
}

Status ReplicatedSimulation::Step(RepAction action) {
  switch (action.kind) {
    case RepAction::Kind::kSourceUpdate:
      return StepSourceUpdate();
    case RepAction::Kind::kSourceAnswer:
      return StepSourceAnswer();
    case RepAction::Kind::kLeadStep:
      return StepLeadStep();
    case RepAction::Kind::kTransportTick:
      return StepTransportTick();
    case RepAction::Kind::kReplicaApply:
      return StepReplicaApply(action.replica);
    case RepAction::Kind::kCatchUpStep:
      return StepCatchUp(action.replica);
    case RepAction::Kind::kHeartbeatRound:
      return StepHeartbeatRound();
    case RepAction::Kind::kClientRead:
      return StepClientRead();
    case RepAction::Kind::kNone:
      return Status::InvalidArgument("cannot step kNone");
  }
  return Status::InvalidArgument("unknown replicated action");
}

Status ReplicatedSimulation::CrashReplica(int r) {
  WVM_RETURN_IF_ERROR(CheckReplica(r));
  Replica& rep = *replicas_[r];
  if (!rep.up()) {
    return Status::FailedPrecondition("replica is already down");
  }
  rep.Crash();
  // The receiver half of its broadcast endpoint dies with it: frames that
  // arrive while it is down are lost on the floor — and, critically, NOT
  // journaled, so the journal never claims an LSN the replica did not
  // durably accept.
  sequencer_.channel(r).CrashReceiver();
  trace_.Add(TraceEvent::Kind::kCrash,
             StrCat(rep.name(), " crashed at applied LSN ",
                    rep.applied_lsn()));
  return Status::OK();
}

Status ReplicatedSimulation::RejoinReplica(int r) {
  WVM_RETURN_IF_ERROR(CheckReplica(r));
  Replica& rep = *replicas_[r];
  if (rep.up() && rep.membership() == ReplicaMembership::kInGroup) {
    return Status::FailedPrecondition(
        "replica is up and in group; nothing to rejoin");
  }
  // Order matters: detach first (stop the firehose and drop retransmission
  // state), take it out of the failure detector, then restore.
  sequencer_.Detach(r);
  monitor_.Suspend(r);
  WVM_RETURN_IF_ERROR(rep.BeginRejoin());
  trace_.Add(TraceEvent::Kind::kRestart,
             StrCat(rep.name(), " rejoining: catch-up from LSN ",
                    rep.applied_lsn(), " toward ", sequencer_.head_lsn()));
  return Status::OK();
}

bool ReplicatedSimulation::Quiescent() const {
  if (!lead_->Quiescent()) {
    return false;
  }
  if (sequencer_.HasTimedWork()) {
    return false;
  }
  if (reads_remaining_ > 0 || heartbeat_rounds_remaining_ > 0) {
    return false;
  }
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const Replica& rep = *replicas_[r];
    if (!rep.up() || rep.membership() != ReplicaMembership::kInGroup ||
        rep.applied_lsn() != sequencer_.head_lsn() ||
        sequencer_.channel(static_cast<int>(r)).HasMessage()) {
      return false;
    }
  }
  return true;
}

ReplicaConvergenceReport ReplicatedSimulation::ConvergenceNow() const {
  std::vector<ReplicaProbe> probes;
  probes.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    ReplicaProbe probe;
    probe.name = replica->name();
    probe.applied_lsn = replica->applied_lsn();
    probe.view = &replica->view();
    probe.in_group =
        replica->up() && replica->membership() == ReplicaMembership::kInGroup;
    probes.push_back(std::move(probe));
  }
  return CheckReplicaConvergence(sequencer_.head_lsn(),
                                 lead_->warehouse_view(), probes);
}

RepAction RandomReplicatedPolicy::Next(const ReplicatedSimulation& sim) {
  std::vector<RepAction> enabled = sim.EnabledActions();
  if (enabled.empty()) {
    return RepAction{};
  }
  return enabled[rng_.Uniform(enabled.size())];
}

Status RunReplicatedToQuiescence(ReplicatedSimulation* sim,
                                 ReplicatedPolicy* policy,
                                 int64_t max_steps) {
  for (int64_t step = 0; step < max_steps; ++step) {
    if (sim->Quiescent()) {
      return Status::OK();
    }
    RepAction action = policy->Next(*sim);
    if (action.kind == RepAction::Kind::kNone) {
      return Status::Internal(
          "replicated policy returned kNone on a non-quiescent run");
    }
    WVM_RETURN_IF_ERROR(sim->Step(action));
  }
  if (sim->Quiescent()) {
    return Status::OK();
  }
  return Status::Internal(
      "replicated run exceeded max_steps without reaching quiescence "
      "(was a crashed replica never rejoined?)");
}

}  // namespace wvm
