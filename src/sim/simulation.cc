#include "sim/simulation.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"

namespace wvm {

Result<std::unique_ptr<Simulation>> Simulation::Create(
    const Catalog& initial, ViewDefinitionPtr view,
    std::unique_ptr<ViewMaintainer> maintainer,
    const SimulationOptions& options) {
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  WVM_RETURN_IF_ERROR(options.recovery.Validate(options.fault));
  if (options.fault_up.has_value() &&
      (options.fault_up->enabled != options.fault.enabled ||
       options.fault_up->reliable != options.fault.reliable)) {
    // The two directions are halves of one conversation; mixing a reliable
    // downlink with a raw uplink (or faulted with passthrough) would make
    // crash semantics undefined for one of the endpoint halves.
    return Status::InvalidArgument(
        "fault_up must agree with fault on enabled and reliable");
  }
  auto sim = std::unique_ptr<Simulation>(new Simulation(view, options));
  if (options.composite_view != nullptr) {
    sim->source_view_ = options.composite_view;
  } else {
    WVM_ASSIGN_OR_RETURN(sim->source_view_,
                         CompositeView::Create(view->name(), {{view, +1}}));
  }
  {
    // Install the transport mode on both directions before any traffic.
    // Disabled faults leave the channels as plain FIFO passthroughs, so
    // every fault-free run is byte-identical to the pre-transport system.
    Simulation* raw = sim.get();
    TransportHooks<SourceMessage> down_hooks;
    down_hooks.byte_size = [raw](const SourceMessage& m) -> int64_t {
      // Only answer payloads carry the Section 6.2 bytes; notifications are
      // excluded from B by the paper's accounting and stay free here too.
      if (const auto* a = std::get_if<AnswerMessage>(&m)) {
        return a->ByteSize(raw->options_.bytes_per_tuple);
      }
      return 0;
    };
    down_hooks.on_retransmit = [raw](int64_t bytes) {
      raw->meter_.RecordRetransmit(bytes);
    };
    down_hooks.on_ack_frame = [raw] { raw->meter_.RecordAckMessage(); };
    TransportHooks<QueryMessage> up_hooks;
    up_hooks.on_retransmit = [raw](int64_t bytes) {
      raw->meter_.RecordRetransmit(bytes);
    };
    up_hooks.on_ack_frame = [raw] { raw->meter_.RecordAckMessage(); };
    if (options.recovery.enabled) {
      JournalDirection(&raw->src_log_.outbound, &raw->wh_log_.inbound,
                       &down_hooks);
      JournalDirection(&raw->wh_log_.outbound, &raw->src_log_.inbound,
                       &up_hooks);
    }
    WVM_RETURN_IF_ERROR(
        sim->to_warehouse_.Configure(options.fault, /*salt=*/1,
                                     std::move(down_hooks)));
    const FaultConfig& up_fault =
        options.fault_up.has_value() ? *options.fault_up : options.fault;
    WVM_RETURN_IF_ERROR(sim->to_source_.Configure(up_fault, /*salt=*/2,
                                                  std::move(up_hooks)));
  }
  if (options.recovery.backend == JournalBackend::kFile) {
    // Spill the four site-log journals to on-disk segments before any
    // traffic can journal a record (AttachWal refuses otherwise).
    const WalOptions& tuning = options.recovery.wal;
    WVM_RETURN_IF_ERROR(sim->wal_dir_.Open(options.recovery.wal_dir));
    WVM_RETURN_IF_ERROR(sim->wh_log_.AttachWals(sim->wal_dir_, tuning, "wh"));
    WVM_RETURN_IF_ERROR(sim->src_log_.AttachWals(sim->wal_dir_, tuning, "src"));
  }
  SourceConfig source_config;
  source_config.physical = options.physical;
  source_config.term_cache = options.term_cache;
  source_config.parallel_batch = options.engine.parallel_answers;
  WVM_ASSIGN_OR_RETURN(
      Source source, Source::Create(initial, source_config,
                                    options.indexes));
  sim->source_ = std::make_unique<Source>(std::move(source));
  sim->warehouse_ = std::make_unique<Warehouse>(
      std::move(maintainer), &sim->to_source_, &sim->meter_);
  if (options.instrument.record_states) {
    // The maintainer keeps its net change to MV from here on, so ws_0 is
    // the change from the empty view. Intermediate view states (e.g. LCA
    // applying several deltas within one event) are recorded too;
    // consecutive duplicates are deduplicated by the checker.
    sim->warehouse_->maintainer().RecordViewDeltas();
    Simulation* raw = sim.get();
    sim->warehouse_->SetViewObserver([raw] { raw->RecordWarehouseState(); });
  }
  WVM_RETURN_IF_ERROR(sim->warehouse_->Initialize(initial));

  if (options.instrument.record_states) {
    // ss_0 and ws_0: the paper assumes V[ws_0] = V[ss_0].
    WVM_ASSIGN_OR_RETURN(Relation v0, sim->SourceViewNow());
    sim->state_log_.RecordSourceState(v0, sim->event_seq_);
    sim->RecordWarehouseState();
  }
  if (options.recovery.enabled) {
    // A restart always has a checkpoint to rebuild from: fold the initial
    // state of both sites into checkpoint zero.
    WVM_RETURN_IF_ERROR(sim->CheckpointWarehouse());
    WVM_RETURN_IF_ERROR(sim->CheckpointSource());
  }
  return sim;
}

WalStats Simulation::wal_stats() const {
  WalStats total = wh_log_.wal_stats();
  total += src_log_.wal_stats();
  return total;
}

void Simulation::SetUpdateScript(std::vector<Update> script) {
  script_.clear();
  cursor_ = 0;
  for (size_t i = 0; i < script.size(); i += options_.batch_size) {
    std::vector<Update> batch;
    for (size_t j = i;
         j < std::min(script.size(), i + options_.batch_size); ++j) {
      batch.push_back(std::move(script[j]));
    }
    script_.push_back(std::move(batch));
  }
}

void Simulation::SetUpdateScriptBatches(
    std::vector<std::vector<Update>> batches) {
  script_ = std::move(batches);
  cursor_ = 0;
}

size_t Simulation::updates_remaining() const {
  size_t remaining = 0;
  for (size_t i = cursor_; i < script_.size(); ++i) {
    remaining += script_[i].size();
  }
  return remaining;
}

bool Simulation::CanSourceUpdate() const {
  return source_up_ && cursor_ < script_.size();
}
bool Simulation::CanSourceAnswer() const {
  return source_up_ && to_source_.HasMessage();
}
bool Simulation::CanWarehouseStep() const {
  return warehouse_up_ && to_warehouse_.HasMessage();
}
bool Simulation::CanTransportTick() const {
  // The wire is not part of either site: transport time passes even while
  // a site is down (frames arriving at a crashed receiver are discarded).
  return to_warehouse_.HasTimedWork() || to_source_.HasTimedWork();
}
bool Simulation::Quiescent() const {
  // A crashed site is never quiescent — it must be restarted first (its
  // peer would otherwise retransmit into the void forever).
  return warehouse_up_ && source_up_ && !CanSourceUpdate() &&
         !CanSourceAnswer() && !CanWarehouseStep() && !CanTransportTick();
}

Status Simulation::RecordSourceState(Relation delta) {
  if (cursor_ < script_.size()) {
    state_log_.RecordSourceDelta(std::move(delta), event_seq_);
    return Status::OK();
  }
  // The last scripted update: record its state evaluated from scratch, and
  // have the log check the running sum of deltas against it.
  WVM_ASSIGN_OR_RETURN(Relation v, SourceViewNow());
  state_log_.RecordCheckedSourceState(delta, v, event_seq_);
  return Status::OK();
}

void Simulation::RecordWarehouseState() {
  if (replaying_) {
    // Journal replay reconstructs states the log already recorded before
    // the crash; recording them again would fabricate history. The
    // maintainer keeps accumulating its change, so the next record is the
    // net change since the last one.
    return;
  }
  state_log_.RecordWarehouseDelta(warehouse_->maintainer().TakeViewDelta(),
                                  event_seq_);
}

Status Simulation::StepSourceUpdate() {
  if (!CanSourceUpdate()) {
    return Status::FailedPrecondition(
        source_up_ ? "no scripted updates left" : "source is down");
  }
  ++event_seq_;
  // Execute the next batch (usually of size 1) as one atomic source event,
  // then ship one notification.
  std::vector<Update> batch = script_[cursor_++];
  const bool record = options_.instrument.record_states;
  Relation delta;  // V<u> summed over the batch
  for (Update& u : batch) {
    u.id = next_update_id_++;
    WVM_RETURN_IF_ERROR(source_->ExecuteUpdate(u));
    if (record) {
      // Right after u, before the rest of the batch: the other relations
      // are exactly as u saw them.
      WVM_ASSIGN_OR_RETURN(Relation part,
                           source_view_->Delta(u, source_->catalog()));
      delta.Add(part);
    }
  }
  if (options_.instrument.record_trace) {
    std::vector<std::string> parts;
    for (const Update& u : batch) {
      parts.push_back(u.ToString());
    }
    trace_.Add(TraceEvent::Kind::kSourceUpdate,
               StrCat("source executes ", Join(parts, "; "),
                      " and notifies the warehouse"));
  }
  meter_.RecordNotification();
  if (batch.size() == 1) {
    to_warehouse_.Send(UpdateNotification{std::move(batch.front())});
  } else {
    to_warehouse_.Send(BatchNotification{std::move(batch)});
  }
  if (record) {
    WVM_RETURN_IF_ERROR(RecordSourceState(std::move(delta)));
  }
  return NoteSourceConsumed(0);
}

Status Simulation::StepSourceAnswer() {
  if (!CanSourceAnswer()) {
    return Status::FailedPrecondition(
        source_up_ ? "no pending queries at the source" : "source is down");
  }
  ++event_seq_;
  if (options_.engine.parallel_answers) {
    // Drain every pending query and evaluate them as one batch (one atomic
    // source event): the engine snapshots the storage and fans the queries
    // onto the thread pool. Answers ship in arrival order, so the
    // warehouse-visible message sequence is the same as if the queries had
    // been answered back-to-back serially.
    std::vector<Query> batch;
    while (to_source_.HasMessage()) {
      batch.push_back(std::move(to_source_.Receive().query));
    }
    WVM_ASSIGN_OR_RETURN(std::vector<AnswerMessage> answers,
                         source_->EvaluateQueryBatch(batch));
    for (size_t i = 0; i < answers.size(); ++i) {
      if (options_.instrument.record_trace) {
        trace_.Add(TraceEvent::Kind::kSourceQueryEval,
                   StrCat("source evaluates ", batch[i].ToString(),
                          " -> ", answers[i].Sum().ToString()));
      }
      meter_.RecordAnswer(answers[i]);
      to_warehouse_.Send(std::move(answers[i]));
    }
    return NoteSourceConsumed(batch.size());
  }
  QueryMessage qm = to_source_.Receive();
  WVM_ASSIGN_OR_RETURN(AnswerMessage answer,
                       source_->EvaluateQuery(qm.query));
  if (options_.instrument.record_trace) {
    trace_.Add(TraceEvent::Kind::kSourceQueryEval,
               StrCat("source evaluates ", qm.query.ToString(),
                      " -> ", answer.Sum().ToString()));
  }
  meter_.RecordAnswer(answer);
  to_warehouse_.Send(std::move(answer));
  return NoteSourceConsumed(1);
}

Status Simulation::StepWarehouse() {
  if (!CanWarehouseStep()) {
    return Status::FailedPrecondition(
        warehouse_up_ ? "no messages for the warehouse"
                      : "warehouse is down");
  }
  ++event_seq_;
  SourceMessage m = to_warehouse_.Receive();
  if (message_tap_) {
    message_tap_(m);
  }
  if (options_.instrument.record_trace) {
    const bool is_answer = std::holds_alternative<AnswerMessage>(m);
    trace_.Add(is_answer ? TraceEvent::Kind::kWarehouseAnswer
                         : TraceEvent::Kind::kWarehouseUpdate,
               StrCat("warehouse receives ", SourceMessageToString(m)));
  }
  WVM_RETURN_IF_ERROR(warehouse_->HandleMessage(m));
  if (options_.instrument.record_trace) {
    trace_.Add(std::holds_alternative<AnswerMessage>(m)
                   ? TraceEvent::Kind::kWarehouseAnswer
                   : TraceEvent::Kind::kWarehouseUpdate,
               StrCat("warehouse view is now ",
                      warehouse_->maintainer().view_contents().ToString()));
  }
  if (options_.instrument.record_states) {
    RecordWarehouseState();
  }
  return NoteWarehouseConsumed(1);
}

Status Simulation::StepTransportTick() {
  if (!CanTransportTick()) {
    return Status::FailedPrecondition("no transport work pending");
  }
  ++event_seq_;
  to_warehouse_.Tick();
  to_source_.Tick();
  if (options_.instrument.record_trace) {
    trace_.Add(TraceEvent::Kind::kTransportTick,
               "transport time advances one tick");
  }
  return Status::OK();
}

Status Simulation::CheckCrashSupported() const {
  if (!options_.fault.enabled || !options_.fault.reliable) {
    // Crash semantics are defined in terms of the endpoint's sender and
    // receiver halves; the plain FIFO channel has neither.
    return Status::FailedPrecondition(
        "crash-restart requires the reliable transport mode");
  }
  return Status::OK();
}

bool Simulation::CanCrashWarehouse() const {
  return options_.fault.enabled && options_.fault.reliable && warehouse_up_;
}

bool Simulation::CanCrashSource() const {
  return options_.fault.enabled && options_.fault.reliable && source_up_;
}

Status Simulation::CrashWarehouse() {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (!warehouse_up_) {
    return Status::FailedPrecondition("warehouse is already down");
  }
  ++event_seq_;
  warehouse_up_ = false;
  // The warehouse is the receiver of source messages and the sender of
  // queries; both halves lose their volatile buffers. Frames already on
  // the wire survive — the wire is not part of the site.
  to_warehouse_.CrashReceiver();
  to_source_.CrashSender();
  // RAM is gone: UQS, COLLECT, pending buffers. MV survives on disk.
  warehouse_->maintainer().LoseVolatileState();
  if (options_.instrument.record_trace) {
    trace_.Add(TraceEvent::Kind::kCrash,
               "warehouse crashes, losing all volatile state");
  }
  return Status::OK();
}

Status Simulation::RestartWarehouse() {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (warehouse_up_) {
    return Status::FailedPrecondition("warehouse is not down");
  }
  ++event_seq_;
  if (options_.recovery.enabled) {
    WVM_RETURN_IF_ERROR(RecoverWarehouse());
  } else {
    // Bare restart: resume with whatever survived — MV on disk, empty
    // bookkeeping. Messages that were delivered (and acked) but not yet
    // consumed are gone for good: the lost-state anomaly.
    to_warehouse_.RestartReceiver();
    to_source_.RestartSender();
  }
  warehouse_up_ = true;
  if (options_.instrument.record_trace) {
    trace_.Add(TraceEvent::Kind::kRestart,
               options_.recovery.enabled
                   ? "warehouse restarts: checkpoint restored, journal tail "
                     "replayed, endpoint re-synced"
                   : "warehouse restarts bare (no recovery journal)");
  }
  return Status::OK();
}

Status Simulation::CrashSource() {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (!source_up_) {
    return Status::FailedPrecondition("source is already down");
  }
  ++event_seq_;
  source_up_ = false;
  // The source is the receiver of queries and the sender of notifications
  // and answers. Its base data lives on disk (the catalog and storage
  // survive any crash); what a bare restart loses are the queries that
  // were delivered but not yet answered.
  to_source_.CrashReceiver();
  to_warehouse_.CrashSender();
  if (options_.instrument.record_trace) {
    trace_.Add(TraceEvent::Kind::kCrash,
               "source crashes, losing all volatile state");
  }
  return Status::OK();
}

Status Simulation::RestartSource() {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (source_up_) {
    return Status::FailedPrecondition("source is not down");
  }
  ++event_seq_;
  if (options_.recovery.enabled) {
    WVM_RETURN_IF_ERROR(RecoverSource());
  } else {
    to_source_.RestartReceiver();
    to_warehouse_.RestartSender();
  }
  source_up_ = true;
  if (options_.instrument.record_trace) {
    trace_.Add(TraceEvent::Kind::kRestart,
               options_.recovery.enabled
                   ? "source restarts: checkpoint restored, update history "
                     "replayed, endpoint re-synced"
                   : "source restarts bare (no recovery journal)");
  }
  return Status::OK();
}

Status Simulation::RecoverWarehouse() {
  WVM_RETURN_IF_ERROR(wh_log_.RestoreCheckpoint(warehouse_.get()));
  // Replay the inbound journal between the checkpoint and the consumed
  // floor. Re-execution rebuilds UQS/COLLECT exactly (same messages, same
  // order, same query ids); sends and metering are suppressed because the
  // original execution already journaled and transmitted those queries,
  // and state-log recording is suppressed because these states were
  // recorded before the crash.
  warehouse_->set_replaying(true);
  replaying_ = true;
  Status replay = wh_log_.inbound.Scan(
      wh_log_.checkpoint->consumed_floor, wh_log_.consumed,
      [this](uint64_t, const SourceMessage& m) {
        return warehouse_->HandleMessage(m);
      });
  warehouse_->set_replaying(false);
  replaying_ = false;
  WVM_RETURN_IF_ERROR(replay);
  WVM_RETURN_IF_ERROR(wh_log_.RestartReceiver(to_warehouse_));
  return wh_log_.RestartSender(to_source_);
}

Status Simulation::RecoverSource() {
  const SourceCheckpoint& ckpt = *src_log_.checkpoint;
  source_->RestoreSnapshot(ckpt.catalog.Clone(), ckpt.storage);
  // The outbound journal doubles as the update history: re-execute the
  // updates announced by every notification past the checkpoint's outbound
  // floor. Answers carry no source state and are skipped here (their
  // payloads are re-sent with the rest of the outbound window).
  WVM_RETURN_IF_ERROR(src_log_.outbound.Scan(
      ckpt.outbound_floor, src_log_.outbound.end_lsn(),
      [this](uint64_t, const SourceMessage& m) -> Status {
        if (const auto* up = std::get_if<UpdateNotification>(&m)) {
          return source_->ExecuteUpdate(up->update);
        }
        if (const auto* batch = std::get_if<BatchNotification>(&m)) {
          for (const Update& u : batch->updates) {
            WVM_RETURN_IF_ERROR(source_->ExecuteUpdate(u));
          }
        }
        return Status::OK();
      }));
  // Queries delivered but not yet answered come back from the inbound
  // journal; already-answered ones are covered by the consumed floor.
  WVM_RETURN_IF_ERROR(src_log_.RestartReceiver(to_source_));
  return src_log_.RestartSender(to_warehouse_);
}

Status Simulation::CheckpointWarehouse() {
  if (!options_.recovery.enabled) {
    return Status::FailedPrecondition("recovery is not enabled");
  }
  if (!warehouse_up_) {
    return Status::FailedPrecondition("cannot checkpoint a crashed site");
  }
  return wh_log_.Checkpoint(*warehouse_, to_source_.acked_floor());
}

Status Simulation::CheckpointSource() {
  if (!options_.recovery.enabled) {
    return Status::FailedPrecondition("recovery is not enabled");
  }
  if (!source_up_) {
    return Status::FailedPrecondition("cannot checkpoint a crashed site");
  }
  SourceCheckpoint ckpt;
  ckpt.catalog = source_->catalog().Clone();
  ckpt.storage = source_->SnapshotStorage();
  ckpt.consumed_floor = src_log_.consumed;
  ckpt.outbound_floor = src_log_.outbound.end_lsn();
  src_log_.checkpoint = std::move(ckpt);
  WVM_RETURN_IF_ERROR(src_log_.inbound.TruncateBelow(src_log_.consumed));
  // Keep everything at or above the cumulative ack: the un-acked suffix is
  // both the re-send set and (above outbound_floor) the replay range.
  WVM_RETURN_IF_ERROR(
      src_log_.outbound.TruncateBelow(to_warehouse_.acked_floor()));
  src_log_.events_since_checkpoint = 0;
  return Status::OK();
}

Status Simulation::NoteWarehouseConsumed(uint64_t frames) {
  if (options_.recovery.enabled &&
      wh_log_.NoteConsumed(frames, options_.recovery.checkpoint_every)) {
    return CheckpointWarehouse();
  }
  return Status::OK();
}

Status Simulation::NoteSourceConsumed(uint64_t frames) {
  if (options_.recovery.enabled &&
      src_log_.NoteConsumed(frames, options_.recovery.checkpoint_every)) {
    return CheckpointSource();
  }
  return Status::OK();
}

Status Simulation::Step(SimAction action) {
  switch (action) {
    case SimAction::kSourceUpdate:
      return StepSourceUpdate();
    case SimAction::kSourceAnswer:
      return StepSourceAnswer();
    case SimAction::kWarehouseStep:
      return StepWarehouse();
    case SimAction::kTransportTick:
      return StepTransportTick();
    case SimAction::kCrashWarehouse:
      return CrashWarehouse();
    case SimAction::kRestartWarehouse:
      return RestartWarehouse();
    case SimAction::kCrashSource:
      return CrashSource();
    case SimAction::kRestartSource:
      return RestartSource();
    case SimAction::kNone:
      return Status::FailedPrecondition("no action enabled");
  }
  return Status::Internal("unknown action");
}

Result<Relation> Simulation::SourceViewNow() const {
  return source_view_->Evaluate(source_->catalog());
}

}  // namespace wvm
