#include "multisource/ms_simulation.h"

#include <stdlib.h>

#include <deque>
#include <filesystem>
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

MsSimulation::~MsSimulation() {
  if (!owns_wal_dir_) {
    return;
  }
  // Close the WAL writers first (their destructors flush and release the
  // fds), then take the temp directory with them.
  wh_in_.clear();
  wh_out_.clear();
  src_in_.clear();
  src_out_.clear();
  consumed_order_.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir_, ec);  // best-effort cleanup
}

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
  if (options.recovery.enabled &&
      (!options.fault.enabled || !options.fault.reliable)) {
    return Status::InvalidArgument(
        "multi-source recovery requires the reliable transport mode");
  }
  if (options.recovery.backend == JournalBackend::kFile &&
      !options.recovery.enabled) {
    return Status::InvalidArgument(
        "the file journal backend requires recovery to be enabled");
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
  sim->wh_consumed_.assign(n, 0);
  sim->src_consumed_.assign(n, 0);

  if (options.recovery.enabled) {
    for (size_t s = 0; s < n; ++s) {
      sim->wh_in_.emplace_back([](const MsSourceMessage& m) {
        return EncodeMsSourceMessage(m);
      });
      sim->wh_out_.emplace_back([](const FragmentRequest& r) {
        return EncodeFragmentRequest(r);
      });
      sim->src_in_.emplace_back([](const FragmentRequest& r) {
        return EncodeFragmentRequest(r);
      });
      sim->src_out_.emplace_back([](const MsSourceMessage& m) {
        return EncodeMsSourceMessage(m);
      });
    }
    sim->consumed_order_.emplace([](const uint64_t& source) {
      std::string out;
      PutU64(&out, source);
      return out;
    });
    if (options.recovery.backend == JournalBackend::kFile) {
      WVM_RETURN_IF_ERROR(sim->AttachWals());
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
      // Write-ahead journaling keyed by the protocol's sequence numbers,
      // exactly as in the single-source site logs: sends at the
      // originating site before the wire, deliveries at the receiving
      // site before the covering ack ("acked => journaled").
      down_hooks.on_send = [raw, s](uint64_t seq, const MsSourceMessage& m) {
        WVM_REQUIRE(raw->src_out_[s].Append(seq, m).ok(),
                    "source outbound journal append failed");
      };
      down_hooks.on_deliver = [raw, s](uint64_t seq,
                                       const MsSourceMessage& m) {
        WVM_REQUIRE(raw->wh_in_[s].Append(seq, m).ok(),
                    "warehouse inbound journal append failed");
      };
      up_hooks.on_send = [raw, s](uint64_t seq, const FragmentRequest& r) {
        WVM_REQUIRE(raw->wh_out_[s].Append(seq, r).ok(),
                    "warehouse outbound journal append failed");
      };
      up_hooks.on_deliver = [raw, s](uint64_t seq, const FragmentRequest& r) {
        WVM_REQUIRE(raw->src_in_[s].Append(seq, r).ok(),
                    "source inbound journal append failed");
      };
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

Status MsSimulation::AttachWals() {
  namespace fs = std::filesystem;
  if (options_.recovery.wal_dir.empty()) {
    std::error_code ec;
    const fs::path base = fs::temp_directory_path(ec);
    if (ec) {
      return Status::Internal("no temp directory for WAL segments: " +
                              ec.message());
    }
    std::string tmpl = (base / "wvm-ms-wal-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::Internal("mkdtemp failed for the WAL directory");
    }
    wal_dir_ = buf.data();
    owns_wal_dir_ = true;
  } else {
    wal_dir_ = options_.recovery.wal_dir;
  }
  const auto wal_options = [this](const std::string& name) {
    WalOptions o = options_.recovery.wal;
    o.dir = wal_dir_;
    o.name = name;
    return o;
  };
  for (size_t s = 0; s < sources_.size(); ++s) {
    const std::string suffix = std::to_string(s);
    WVM_RETURN_IF_ERROR(wh_in_[s].AttachWal(wal_options("wh-in-" + suffix)));
    WVM_RETURN_IF_ERROR(wh_out_[s].AttachWal(wal_options("wh-out-" + suffix)));
    WVM_RETURN_IF_ERROR(src_in_[s].AttachWal(wal_options("src-in-" + suffix)));
    WVM_RETURN_IF_ERROR(
        src_out_[s].AttachWal(wal_options("src-out-" + suffix)));
  }
  return consumed_order_->AttachWal(wal_options("consumed"));
}

Status MsSimulation::SetUpdateScript(size_t source,
                                     std::vector<Update> script) {
  if (source >= sources_.size()) {
    return Status::OutOfRange("no such source");
  }
  scripts_[source] = std::move(script);
  cursors_[source] = 0;
  return Status::OK();
}

bool MsSimulation::CanSourceUpdate(size_t s) const {
  return source_up_[s] != 0 && cursors_[s] < scripts_[s].size();
}
bool MsSimulation::CanSourceAnswer(size_t s) const {
  return source_up_[s] != 0 && to_source_[s]->HasMessage();
}
bool MsSimulation::CanWarehouseStep(size_t s) const {
  return warehouse_up_ && to_warehouse_[s]->HasMessage();
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
  if (!CanSourceUpdate(s)) {
    return Status::FailedPrecondition(
        source_up_[s] != 0 ? "no scripted updates at this source"
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
  if (!CanSourceAnswer(s)) {
    return Status::FailedPrecondition(
        source_up_[s] != 0 ? "no pending fragment requests"
                           : "source is down");
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
    ++src_consumed_[s];
  }
  return Status::OK();
}

Status MsSimulation::StepWarehouse(size_t s) {
  if (!CanWarehouseStep(s)) {
    return Status::FailedPrecondition(
        warehouse_up_ ? "no messages from this source" : "warehouse is down");
  }
  ++event_seq_;
  MsSourceMessage m = to_warehouse_[s]->Receive();
  if (options_.recovery.enabled) {
    // Log the consumption order BEFORE applying: replay needs the
    // cross-source interleaving to reissue the same query ids.
    WVM_RETURN_IF_ERROR(consumed_order_->Append(total_consumed_, s));
    ++total_consumed_;
    ++wh_consumed_[s];
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
         options_.recovery.enabled && source_up_[s] != 0;
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
      0, total_consumed_,
      [this, &replay_pos](uint64_t, const uint64_t& source) -> Status {
        const size_t s = static_cast<size_t>(source);
        WVM_ASSIGN_OR_RETURN(const MsSourceMessage* m,
                             wh_in_[s].Read(replay_pos[s]));
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
    WVM_REQUIRE(replay_pos[s] == wh_consumed_[s],
                "consumption journal disagrees with per-source floors");
    // Delivered-but-unconsumed frames were journaled (acked => journaled):
    // re-enqueue them and restart the receiver at the journal's high-water
    // mark.
    std::deque<MsSourceMessage> tail;
    WVM_RETURN_IF_ERROR(wh_in_[s].Scan(
        wh_consumed_[s], wh_in_[s].end_lsn(),
        [&tail](uint64_t, const MsSourceMessage& m) {
          tail.push_back(m);
          return Status::OK();
        }));
    to_warehouse_[s]->RestartReceiver(wh_in_[s].end_lsn(), std::move(tail));
    // Conservatively re-install every retained outbound record as the
    // unacked window: retransmission repairs in-flight loss, the source's
    // dedup absorbs duplicates, and its next cumulative ack prunes the
    // excess.
    std::map<uint64_t, FragmentRequest> unacked;
    WVM_RETURN_IF_ERROR(wh_out_[s].Scan(
        wh_out_[s].begin_lsn(), wh_out_[s].end_lsn(),
        [&unacked](uint64_t lsn, const FragmentRequest& r) {
          unacked.emplace(lsn, r);
          return Status::OK();
        }));
    to_source_[s]->RestartSender(wh_out_[s].end_lsn(), std::move(unacked));
  }
  warehouse_up_ = true;
  return Status::OK();
}

Status MsSimulation::CrashSource(size_t s) {
  WVM_RETURN_IF_ERROR(CheckCrashSupported());
  if (s >= sources_.size()) {
    return Status::OutOfRange("no such source");
  }
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
  if (s >= sources_.size()) {
    return Status::OutOfRange("no such source");
  }
  if (source_up_[s] != 0) {
    return Status::FailedPrecondition("source is not down");
  }
  ++event_seq_;
  std::deque<FragmentRequest> tail;
  WVM_RETURN_IF_ERROR(src_in_[s].Scan(
      src_consumed_[s], src_in_[s].end_lsn(),
      [&tail](uint64_t, const FragmentRequest& r) {
        tail.push_back(r);
        return Status::OK();
      }));
  to_source_[s]->RestartReceiver(src_in_[s].end_lsn(), std::move(tail));
  std::map<uint64_t, MsSourceMessage> unacked;
  WVM_RETURN_IF_ERROR(src_out_[s].Scan(
      src_out_[s].begin_lsn(), src_out_[s].end_lsn(),
      [&unacked](uint64_t lsn, const MsSourceMessage& m) {
        unacked.emplace(lsn, m);
        return Status::OK();
      }));
  to_warehouse_[s]->RestartSender(src_out_[s].end_lsn(), std::move(unacked));
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
  const auto add = [&total](const WalStats* s) {
    if (s == nullptr) {
      return;
    }
    total.appends += s->appends;
    total.appended_bytes += s->appended_bytes;
    total.flushes += s->flushes;
    total.fsyncs += s->fsyncs;
    total.segments_created += s->segments_created;
    total.segments_dropped += s->segments_dropped;
    total.recovered_records += s->recovered_records;
    total.torn_records_dropped += s->torn_records_dropped;
    total.torn_bytes_dropped += s->torn_bytes_dropped;
  };
  for (size_t s = 0; s < wh_in_.size(); ++s) {
    add(wh_in_[s].wal_stats());
    add(wh_out_[s].wal_stats());
    add(src_in_[s].wal_stats());
    add(src_out_[s].wal_stats());
  }
  if (consumed_order_.has_value()) {
    add(consumed_order_->wal_stats());
  }
  return total;
}

}  // namespace wvm
