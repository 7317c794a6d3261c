#include "replication/replica.h"

#include "common/strings.h"
#include "relational/tuple.h"

namespace wvm {

const char* ReplicaMembershipName(ReplicaMembership m) {
  switch (m) {
    case ReplicaMembership::kInGroup:
      return "in-group";
    case ReplicaMembership::kCatchingUp:
      return "catching-up";
    case ReplicaMembership::kEvicted:
      return "evicted";
  }
  return "?";
}

Result<std::unique_ptr<Replica>> Replica::Create(int id, Algorithm algorithm,
                                                 ViewDefinitionPtr view,
                                                 const Catalog& initial,
                                                 int checkpoint_every) {
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  WVM_ASSIGN_OR_RETURN(
      std::unique_ptr<ViewMaintainer> maintainer,
      MakeMaintainer({.algorithm = algorithm}, std::move(view)));
  auto replica =
      std::unique_ptr<Replica>(new Replica(id, checkpoint_every));
  replica->warehouse_ = std::make_unique<Warehouse>(
      std::move(maintainer), &replica->null_query_channel_, &replica->meter_);
  // Permanently in replay mode: the maintainer's sends exist only to keep
  // its query-id bookkeeping aligned with the lead's — the actual queries
  // were (or will be) sent by the lead, and their answers arrive in the
  // sequenced broadcast.
  replica->warehouse_->set_replaying(true);
  WVM_RETURN_IF_ERROR(replica->warehouse_->Initialize(initial));
  // A rejoin always has a checkpoint to rebuild from (LSN floor 0 folds in
  // exactly the initial state, which the paper assumes equals V[ss_0]).
  WVM_RETURN_IF_ERROR(replica->Checkpoint());
  return replica;
}

std::string Replica::name() const { return StrCat("replica-", id_); }

Status Replica::Apply(const SourceMessage& m) {
  WVM_RETURN_IF_ERROR(warehouse_->HandleMessage(m));
  return log_.NoteConsumed(1, checkpoint_every_) ? Checkpoint() : Status::OK();
}

Status Replica::ApplyFromChannel(TransportChannel<SourceMessage>& channel) {
  if (!up_) {
    return Status::FailedPrecondition("replica is down");
  }
  if (membership_ != ReplicaMembership::kInGroup) {
    return Status::FailedPrecondition(
        "only in-group replicas consume the live broadcast");
  }
  if (!channel.HasMessage()) {
    return Status::FailedPrecondition("no broadcast message deliverable");
  }
  SourceMessage m = channel.Receive();
  return Apply(m);
}

Result<int> Replica::CatchUpStep(const Sequencer& sequencer, int batch) {
  if (!up_) {
    return Status::FailedPrecondition("replica is down");
  }
  if (membership_ != ReplicaMembership::kCatchingUp) {
    return Status::FailedPrecondition("replica is not catching up");
  }
  int applied = 0;
  while (applied < batch && log_.consumed < sequencer.head_lsn()) {
    const uint64_t lsn = log_.consumed;
    if (lsn < log_.inbound.end_lsn()) {
      // The replica journaled this record before it crashed (or before it
      // was evicted): replay it from local durable state.
      WVM_ASSIGN_OR_RETURN(const SourceMessage* m, log_.inbound.Read(lsn));
      WVM_RETURN_IF_ERROR(Apply(*m));
    } else {
      // Beyond the local journal: fetch from the sequencer's history and
      // journal it locally BEFORE applying, so a crash mid-catch-up finds
      // every applied record (and possibly one unapplied) in the journal.
      WVM_ASSIGN_OR_RETURN(const SourceMessage* m,
                           sequencer.HistoryRead(lsn));
      WVM_RETURN_IF_ERROR(log_.inbound.Append(lsn, *m));
      WVM_ASSIGN_OR_RETURN(const SourceMessage* journaled,
                           log_.inbound.Read(lsn));
      WVM_RETURN_IF_ERROR(Apply(*journaled));
    }
    ++applied;
  }
  return applied;
}

void Replica::Crash() {
  up_ = false;
  // Fail-stop: the maintainer's in-memory state is now garbage and must not
  // be observed until BeginRejoin() restores the checkpoint. Modeled the
  // same way the single-site simulator does it — volatile bookkeeping is
  // wiped, the journal and checkpoint (the simulated disk) survive.
  warehouse_->maintainer().LoseVolatileState();
}

Status Replica::BeginRejoin() {
  if (!up_) {
    up_ = true;
    // The journal tail above the checkpoint is re-applied by CatchUpStep,
    // so the applied LSN restarts at the checkpoint's floor.
    WVM_RETURN_IF_ERROR(log_.RestoreCheckpoint(warehouse_.get()));
    log_.consumed = log_.checkpoint->consumed_floor;
    log_.events_since_checkpoint = 0;
  }
  // An up-but-evicted replica (spurious eviction: its heartbeats were lost,
  // not its state) keeps its current applied prefix and only has to close
  // the gap to the head.
  membership_ = ReplicaMembership::kCatchingUp;
  return Status::OK();
}

Status Replica::Checkpoint() {
  if (!up_) {
    return Status::FailedPrecondition("cannot checkpoint a crashed replica");
  }
  // The replica never sends, so there is no outbound window to keep.
  return log_.Checkpoint(*warehouse_, /*acked_floor=*/0);
}

uint64_t Replica::ServeRead() const {
  std::lock_guard<std::mutex> lock(serve_mutex_);
  ++reads_served_;
  // Fingerprint the served view — the stand-in for materializing a result
  // page. Touching every tuple keeps the per-read cost proportional to the
  // view, so the bench's throughput-vs-N curve measures replica capacity,
  // not loop overhead.
  uint64_t fp = kTupleHashSeed;
  for (const auto& [t, c] : view().entries()) {
    fp = TupleHashFold(fp, t.Hash());
    fp = TupleHashFold(fp, static_cast<size_t>(c));
  }
  return fp;
}

}  // namespace wvm
