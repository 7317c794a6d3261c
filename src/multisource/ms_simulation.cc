#include "multisource/ms_simulation.h"

#include <utility>

#include "common/byte_io.h"
#include "common/strings.h"
#include "multisource/ms_wire_codec.h"
#include "query/evaluator.h"

namespace wvm {

// The MsContext the maintainer sees: allocates query ids and queues
// fragment requests into the per-source channels. During a recovered
// restart's genesis replay the maintainer re-issues the same calls the
// original run made; the id counter was rewound so the ids come out
// identical, and the sends are suppressed — the originals were journaled
// at send time and are re-installed in the sender's unacked window
// instead.
class MsSimulation::Context : public MsContext {
 public:
  explicit Context(MsSimulation* sim) : sim_(sim) {}

  uint64_t NextQueryId() override { return next_query_id_++; }

  void RequestFragments(size_t source, FragmentRequest request) override {
    if (sim_->replaying_) {
      return;
    }
    ++sim_->fragment_requests_;
    sim_->to_source_[source]->Send(std::move(request));
  }

  Result<size_t> OwnerOf(const std::string& relation) const override {
    auto it = sim_->owner_.find(relation);
    if (it == sim_->owner_.end()) {
      return Status::NotFound(
          StrCat("relation '", relation, "' owned by no source"));
    }
    return it->second;
  }

  size_t num_sources() const override { return sim_->sources_.size(); }

  void set_next_query_id(uint64_t id) { next_query_id_ = id; }

 private:
  MsSimulation* sim_;
  uint64_t next_query_id_ = 1;
};

MsSimulation::~MsSimulation() = default;

Result<std::unique_ptr<MsSimulation>> MsSimulation::Create(
    std::vector<Catalog> per_source, ViewDefinitionPtr view,
    std::unique_ptr<MsMaintainer> maintainer,
    const MsSimulationOptions& options) {
  if (per_source.empty()) {
    return Status::InvalidArgument("need at least one source");
  }
  if (options.fault_up.has_value() &&
      (options.fault_up->enabled != options.fault.enabled ||
       options.fault_up->reliable != options.fault.reliable)) {
    return Status::InvalidArgument(
        "fault_up must agree with fault on enabled and reliable");
  }
  WVM_RETURN_IF_ERROR(options.recovery.Validate(options.fault));
  if (options.recovery.checkpoint_every != 0) {
    return Status::InvalidArgument(
        "multi-source recovery is genesis replay and takes no checkpoints; "
        "checkpoint_every must be 0");
  }
  auto sim = std::unique_ptr<MsSimulation>(new MsSimulation());
  sim->view_ = std::move(view);
  sim->options_ = options;
  sim->maintainer_ = std::move(maintainer);
  sim->context_ = std::make_unique<Context>(sim.get());
  sim->sources_ = std::move(per_source);
  const size_t n = sim->sources_.size();
  sim->scripts_.resize(n);
  sim->cursors_.assign(n, 0);
  sim->source_up_.assign(n, 1);

  if (options.recovery.enabled) {
    for (size_t s = 0; s < n; ++s) {
      sim->wh_logs_.emplace_back(EncodeMsSourceMessage, EncodeFragmentRequest);
      sim->src_logs_.emplace_back(EncodeFragmentRequest, EncodeMsSourceMessage);
    }
    sim->consumed_order_.emplace([](const uint64_t& source) {
      std::string out;
      PutU64(&out, source);
      return out;
    });
    if (options.recovery.backend == JournalBackend::kFile) {
      // Every journal spills to on-disk segments before any traffic can
      // journal a record (AttachWal refuses otherwise).
      const WalOptions& tuning = options.recovery.wal;
      WalDirectory& dir = sim->wal_dir_;
      WVM_RETURN_IF_ERROR(dir.Open(options.recovery.wal_dir));
      for (size_t s = 0; s < n; ++s) {
        WVM_RETURN_IF_ERROR(
            sim->wh_logs_[s].AttachWals(dir, tuning, StrCat("wh-", s)));
        WVM_RETURN_IF_ERROR(
            sim->src_logs_[s].AttachWals(dir, tuning, StrCat("src-", s)));
      }
      WVM_RETURN_IF_ERROR(
          sim->consumed_order_->AttachWal(dir.Options(tuning, "consumed")));
    }
  }

  // One transport channel pair per source, with salts decorrelating every
  // link's fault stream from every other (each channel internally derives
  // two link streams from its salt).
  MsSimulation* raw = sim.get();
  const FaultConfig& up_fault =
      options.fault_up.has_value() ? *options.fault_up : options.fault;
  for (size_t s = 0; s < n; ++s) {
    TransportHooks<MsSourceMessage> down_hooks;
    TransportHooks<FragmentRequest> up_hooks;
    if (options.recovery.enabled) {
      JournalDirection(&raw->src_logs_[s].outbound, &raw->wh_logs_[s].inbound,
                       &down_hooks);
      JournalDirection(&raw->wh_logs_[s].outbound, &raw->src_logs_[s].inbound,
                       &up_hooks);
    }
    sim->to_warehouse_.push_back(
        std::make_unique<TransportChannel<MsSourceMessage>>());
    sim->to_source_.push_back(
        std::make_unique<TransportChannel<FragmentRequest>>());
    WVM_RETURN_IF_ERROR(sim->to_warehouse_.back()->Configure(
        options.fault, /*salt=*/100 + 2 * s, std::move(down_hooks)));
    WVM_RETURN_IF_ERROR(sim->to_source_.back()->Configure(
        up_fault, /*salt=*/101 + 2 * s, std::move(up_hooks)));
  }

  // Build the ownership map and the merged mirror.
  for (size_t s = 0; s < n; ++s) {
    for (const std::string& name : sim->sources_[s].Names()) {
      if (!sim->owner_.emplace(name, s).second) {
        return Status::InvalidArgument(
            StrCat("relation '", name, "' owned by two sources"));
      }
      WVM_ASSIGN_OR_RETURN(const Relation* data, sim->sources_[s].Get(name));
      WVM_RETURN_IF_ERROR(sim->merged_.DefineWithData(
          BaseRelationDef{name, data->schema()}, *data));
    }
  }
  if (options.recovery.enabled) {
    // Checkpoint zero: genesis replay re-initializes the maintainer from
    // the initial merged state, never the current one.
    sim->genesis_ = sim->merged_.Clone();
  }

  WVM_RETURN_IF_ERROR(sim->maintainer_->Initialize(sim->merged_));
  WVM_ASSIGN_OR_RETURN(Relation v0, sim->GlobalViewNow());
  sim->state_log_.RecordSourceState(v0, sim->event_seq_);
  sim->state_log_.RecordWarehouseState(sim->maintainer_->view_contents(),
                                       sim->event_seq_);
  return sim;
}

Status MsSimulation::CheckSource(size_t source) const {
  if (source >= sources_.size()) {
    return Status::OutOfRange("no such source");
  }
  return Status::OK();
}

Status MsSimulation::SetUpdateScript(size_t source,
                                     std::vector<Update> script) {
  WVM_RETURN_IF_ERROR(CheckSource(source));
  scripts_[source] = std::move(script);
  cursors_[source] = 0;
  return Status::OK();
}

bool MsSimulation::CanSourceUpdate(size_t s) const {
  return source_up(s) && cursors_[s] < scripts_[s].size();
}
bool MsSimulation::CanSourceAnswer(size_t s) const {
  return source_up(s) && to_source_[s]->HasMessage();
}
bool MsSimulation::CanWarehouseStep(size_t s) const {
  return warehouse_up_ && s < sources_.size() &&
         to_warehouse_[s]->HasMessage();
}
bool MsSimulation::CanTransportTick() const {
  // The wires are not part of any site: transport time passes even while
  // a site is down.
  for (size_t s = 0; s < sources_.size(); ++s) {
    if (to_warehouse_[s]->HasTimedWork() || to_source_[s]->HasTimedWork()) {
      return true;
    }
  }
  return false;
}

bool MsSimulation::Quiescent() const {
  if (!warehouse_up_) {
    return false;  // a crashed site is never quiescent
  }
  for (size_t s = 0; s < sources_.size(); ++s) {
    if (source_up_[s] == 0 || CanSourceUpdate(s) || CanSourceAnswer(s) ||
        CanWarehouseStep(s)) {
      return false;
    }
  }
  return !CanTransportTick();
}

Status MsSimulation::StepSourceUpdate(size_t s) {
  WVM_RETURN_IF_ERROR(CheckSource(s));
  if (!CanSourceUpdate(s)) {
    return Status::FailedPrecondition(
        source_up(s) ? "no scripted updates at this source"
                     : "source is down");
  }
  ++event_seq_;
  Update u = scripts_[s][cursors_[s]++];
  u.id = next_update_id_++;
  WVM_RETURN_IF_ERROR(sources_[s].Apply(u));
  WVM_RETURN_IF_ERROR(merged_.Apply(u));
  to_warehouse_[s]->Send(UpdateNotification{std::move(u)});
  WVM_ASSIGN_OR_RETURN(Relation v, GlobalViewNow());
  state_log_.RecordSourceState(v, event_seq_);
  return Status::OK();
}

Status MsSimulation::StepSourceAnswer(size_t s) {
  WVM_RETURN_IF_ERROR(CheckSource(s));
  if (!CanSourceAnswer(s)) {
    return Status::FailedPrecondition(
        source_up(s) ? "no pending fragment requests" : "source is down");
  }
  ++event_seq_;
  FragmentRequest request = to_source_[s]->Receive();
  FragmentAnswer answer;
  answer.query_id = request.query_id;
  for (const std::string& name : request.relations) {
    WVM_ASSIGN_OR_RETURN(const Relation* data, sources_[s].Get(name));
    answer.fragments.emplace(name, *data);
  }
  fragment_tuples_ += answer.TupleCount();
  to_warehouse_[s]->Send(std::move(answer));
  if (options_.recovery.enabled) {
    ++src_logs_[s].consumed;
  }
  return Status::OK();
}

Status MsSimulation::StepWarehouse(size_t s) {
  WVM_RETURN_IF_ERROR(CheckSource(s));
  if (!CanWarehouseStep(s)) {
    return Status::FailedPrecondition(
        warehouse_up_ ? "no messages from this source" : "warehouse is down");
  }
  ++event_seq_;
  MsSourceMessage m = to_warehouse_[s]->Receive();
  if (options_.recovery.enabled) {
    // Log the consumption order BEFORE applying: replay needs the
    // cross-source interleaving to reissue the same query ids.
    WVM_RETURN_IF_ERROR(consumed_order_->Append(consumed_order_->end_lsn(), s));
    ++wh_logs_[s].consumed;
  }
  if (const auto* up = std::get_if<UpdateNotification>(&m)) {
    WVM_RETURN_IF_ERROR(
        maintainer_->OnUpdate(s, up->update, context_.get()));
  } else {
    WVM_RETURN_IF_ERROR(maintainer_->OnFragments(
        s, std::get<FragmentAnswer>(m), context_.get()));
  }
  state_log_.RecordWarehouseState(maintainer_->view_contents(), event_seq_);
  return Status::OK();
}

Status MsSimulation::StepTransportTick() {
  if (!CanTransportTick()) {
    return Status::FailedPrecondition("no transport work pending");
  }
  ++event_seq_;
  for (size_t s = 0; s < sources_.size(); ++s) {
    to_warehouse_[s]->Tick();
    to_source_[s]->Tick();
  }
  return Status::OK();
}

Status MsSimulation::CheckCrashSupported() const {
  if (!options_.fault.enabled || !options_.fault.reliable ||
      !options_.recovery.enabled) {
    // The multi-source tier supports only recovered restarts (the bare
    // lost-state anomaly is the single-source simulator's subject).
    return Status::FailedPrecondition(
        "multi-source crash-restart requires reliable transport + recovery");
  }
  return Status::OK();
}

bool MsSimulation::CanCrashWarehouse() const {
  return options_.fault.enabled && options_.fault.reliable &&
         options_.recovery.enabled && warehouse_up_;
}

bool MsSimulation::CanCrashSource(size_t s) const {
  return options_.fault.enabled && options_.fault.reliable &&
         options_.recovery.enabled && source_up(s);
}

Status MsSimulation::CrashWarehouse() {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (!warehouse_up_) {
    return Status::FailedPrecondition("warehouse is already down");
  }
  ++event_seq_;
  warehouse_up_ = false;
  // The warehouse receives every source's messages and sends every
  // fragment request: all those endpoint halves lose their volatile
  // buffers. Frames already on a wire survive.
  for (size_t s = 0; s < sources_.size(); ++s) {
    to_warehouse_[s]->CrashReceiver();
    to_source_[s]->CrashSender();
  }
  return Status::OK();
}

Status MsSimulation::RestartWarehouse() {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (warehouse_up_) {
    return Status::FailedPrecondition("warehouse is not down");
  }
  ++event_seq_;
  // Genesis replay: re-initialize the maintainer from checkpoint zero,
  // rewind the query-id counter, and re-consume every journaled message in
  // the original cross-source order. Per-source FIFO makes each inbound
  // journal's LSN order that source's consumption order; the consumption
  // journal supplies the interleaving. Sends and metering are suppressed
  // (the originals were journaled and transmitted), as are state-log
  // records (those states were recorded before the crash).
  WVM_RETURN_IF_ERROR(maintainer_->Initialize(genesis_));
  context_->set_next_query_id(1);
  std::vector<uint64_t> replay_pos(sources_.size(), 0);
  replaying_ = true;
  Status replay = consumed_order_->Scan(
      0, consumed_order_->end_lsn(),
      [this, &replay_pos](uint64_t, const uint64_t& source) -> Status {
        const size_t s = static_cast<size_t>(source);
        WVM_ASSIGN_OR_RETURN(const MsSourceMessage* m,
                             wh_logs_[s].inbound.Read(replay_pos[s]));
        ++replay_pos[s];
        if (const auto* up = std::get_if<UpdateNotification>(m)) {
          return maintainer_->OnUpdate(s, up->update, context_.get());
        }
        return maintainer_->OnFragments(s, std::get<FragmentAnswer>(*m),
                                        context_.get());
      });
  replaying_ = false;
  WVM_RETURN_IF_ERROR(replay);
  for (size_t s = 0; s < sources_.size(); ++s) {
    WVM_REQUIRE(replay_pos[s] == wh_logs_[s].consumed,
                "consumption journal disagrees with per-source floors");
    WVM_RETURN_IF_ERROR(wh_logs_[s].RestartReceiver(*to_warehouse_[s]));
    WVM_RETURN_IF_ERROR(wh_logs_[s].RestartSender(*to_source_[s]));
  }
  warehouse_up_ = true;
  return Status::OK();
}

Status MsSimulation::CrashSource(size_t s) {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  WVM_RETURN_IF_ERROR(CheckSource(s));
  if (source_up_[s] == 0) {
    return Status::FailedPrecondition("source is already down");
  }
  ++event_seq_;
  source_up_[s] = 0;
  // The source's base data lives on disk (the catalog survives); what dies
  // are the fragment requests delivered but not yet answered and the
  // sender half's unacked buffers.
  to_source_[s]->CrashReceiver();
  to_warehouse_[s]->CrashSender();
  return Status::OK();
}

Status MsSimulation::RestartSource(size_t s) {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  WVM_RETURN_IF_ERROR(CheckSource(s));
  if (source_up_[s] != 0) {
    return Status::FailedPrecondition("source is not down");
  }
  ++event_seq_;
  WVM_RETURN_IF_ERROR(src_logs_[s].RestartReceiver(*to_source_[s]));
  WVM_RETURN_IF_ERROR(src_logs_[s].RestartSender(*to_warehouse_[s]));
  source_up_[s] = 1;
  return Status::OK();
}

std::vector<MsAction> MsSimulation::EnabledActions() const {
  std::vector<MsAction> actions;
  for (size_t s = 0; s < sources_.size(); ++s) {
    if (CanSourceUpdate(s)) {
      actions.push_back({MsAction::Kind::kSourceUpdate, s});
    }
    if (CanSourceAnswer(s)) {
      actions.push_back({MsAction::Kind::kSourceAnswer, s});
    }
    if (CanWarehouseStep(s)) {
      actions.push_back({MsAction::Kind::kWarehouseStep, s});
    }
  }
  if (CanTransportTick()) {
    actions.push_back({MsAction::Kind::kTransportTick, 0});
  }
  return actions;
}

namespace {

Status Step(MsSimulation* sim, const MsAction& action) {
  switch (action.kind) {
    case MsAction::Kind::kSourceUpdate:
      return sim->StepSourceUpdate(action.source);
    case MsAction::Kind::kSourceAnswer:
      return sim->StepSourceAnswer(action.source);
    case MsAction::Kind::kWarehouseStep:
      return sim->StepWarehouse(action.source);
    case MsAction::Kind::kTransportTick:
      return sim->StepTransportTick();
  }
  return Status::Internal("unknown action");
}

}  // namespace

Status MsSimulation::RunRandom(uint64_t seed) {
  Random rng(seed);
  while (true) {
    std::vector<MsAction> actions = EnabledActions();
    if (actions.empty()) {
      return Status::OK();
    }
    WVM_RETURN_IF_ERROR(Step(this, actions[rng.Uniform(actions.size())]));
  }
}

int MsActionPriority(MsAction::Kind kind) {
  switch (kind) {
    case MsAction::Kind::kWarehouseStep:
      return 4;
    case MsAction::Kind::kSourceAnswer:
      return 3;
    case MsAction::Kind::kTransportTick:
      return 2;
    case MsAction::Kind::kSourceUpdate:
      return 1;
  }
  return 0;
}

Status MsSimulation::RunBestCase() {
  while (true) {
    std::vector<MsAction> actions = EnabledActions();
    if (actions.empty()) {
      return Status::OK();
    }
    const MsAction* chosen = &actions.front();
    for (const MsAction& a : actions) {
      if (MsActionPriority(a.kind) > MsActionPriority(chosen->kind)) {
        chosen = &a;
      }
    }
    WVM_RETURN_IF_ERROR(Step(this, *chosen));
  }
}

Result<Relation> MsSimulation::GlobalViewNow() const {
  return EvaluateView(view_, merged_);
}

TransportStats MsSimulation::transport_stats() const {
  TransportStats total;
  for (size_t s = 0; s < sources_.size(); ++s) {
    total += to_warehouse_[s]->stats();
    total += to_source_[s]->stats();
  }
  return total;
}

WalStats MsSimulation::wal_stats() const {
  WalStats total;
  for (size_t s = 0; s < wh_logs_.size(); ++s) {
    total += wh_logs_[s].wal_stats();
    total += src_logs_[s].wal_stats();
  }
  if (consumed_order_.has_value() && consumed_order_->has_wal()) {
    total += *consumed_order_->wal_stats();
  }
  return total;
}

}  // namespace wvm
