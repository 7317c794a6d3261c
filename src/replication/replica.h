#ifndef WVM_REPLICATION_REPLICA_H_
#define WVM_REPLICATION_REPLICA_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "channel/cost_meter.h"
#include "core/factory.h"
#include "core/warehouse.h"
#include "recovery/checkpointed_site_log.h"
#include "replication/sequencer.h"

namespace wvm {

/// Where a replica stands relative to the broadcast group.
enum class ReplicaMembership {
  /// Receiving the live broadcast; eligible to serve reads (unless the
  /// heartbeat monitor currently suspects it).
  kInGroup,
  /// Rejoining: replaying its own journal tail and then the sequencer
  /// history until it reaches the head. Never serves reads.
  kCatchingUp,
  /// Evicted by the heartbeat monitor; receives no broadcast traffic until
  /// it rejoins via catch-up.
  kEvicted,
};

const char* ReplicaMembershipName(ReplicaMembership m);

/// One warehouse replica of the replicated tier: an unmodified ECA-family
/// maintainer driven by the sequenced broadcast instead of a private source
/// connection. Determinism does the heavy lifting — the maintainer re-runs
/// the exact decision procedure the lead ran, over the exact same message
/// stream, so byte-identical view state needs no coordination at all.
///
/// The replica never originates traffic: its Warehouse runs permanently in
/// replay mode, so the compensating queries its maintainer "sends" are
/// allocated (keeping query-id bookkeeping aligned with the lead) but
/// neither metered nor transmitted — the answers arrive in the broadcast.
///
/// Durable state (survives a crash) is a WarehouseSiteLog — the replica is
/// a warehouse site that never sends, so its outbound journal stays empty:
/// the inbound journal of LSN-keyed broadcast records and the latest
/// checkpoint, taken and restored by the same code as the single-site
/// warehouse's. The checkpoint's query-id counter matters here too: the
/// broadcast answers carry the lead's ids, so replayed notifications must
/// re-allocate the very ids they allocated the first time. Everything else
/// — maintainer bookkeeping, channel buffers — is volatile.
class Replica {
 public:
  static Result<std::unique_ptr<Replica>> Create(int id, Algorithm algorithm,
                                                 ViewDefinitionPtr view,
                                                 const Catalog& initial,
                                                 int checkpoint_every);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  int id() const { return id_; }
  std::string name() const;

  bool up() const { return up_; }
  ReplicaMembership membership() const { return membership_; }
  void set_membership(ReplicaMembership m) { membership_ = m; }

  /// Number of sequenced messages applied = the next LSN this replica
  /// needs. Equal to the lead's consumed count when fully caught up.
  uint64_t applied_lsn() const { return log_.consumed; }

  /// The replica's durable inbound journal (LSN-keyed broadcast records).
  const Journal<SourceMessage>& journal() const { return log_.inbound; }
  Journal<SourceMessage>& mutable_journal() { return log_.inbound; }
  const std::optional<WarehouseCheckpoint>& checkpoint() const {
    return log_.checkpoint;
  }

  const Relation& view() const {
    return warehouse_->maintainer().view_contents();
  }
  const ViewMaintainer& maintainer() const { return warehouse_->maintainer(); }

  /// Applies the next deliverable broadcast message from `channel` (which
  /// journaled it on delivery). Pre: up, in group, channel has a message.
  Status ApplyFromChannel(TransportChannel<SourceMessage>& channel);

  /// One catch-up step: applies up to `batch` missed messages, reading each
  /// from the replica's own journal where it reaches and from the sequencer
  /// history beyond that (appending history reads to the journal, so a
  /// crash mid-catch-up loses no progress past the last applied record).
  /// Pre: up, catching up. Returns the number of messages applied.
  Result<int> CatchUpStep(const Sequencer& sequencer, int batch);

  /// Fail-stop crash: volatile state is garbage until the next
  /// BeginRejoin() restores it. The journal and checkpoint survive.
  void Crash();

  /// Starts the rejoin protocol. For a crashed replica: restore the
  /// checkpoint, after which CatchUpStep replays the journal tail and then
  /// the history. For an up-but-evicted replica (spurious eviction): state
  /// is current, catch-up only has to close the gap to the head.
  Status BeginRejoin();

  /// Folds current state into a new checkpoint and truncates the journal
  /// prefix it made redundant. Pre: up.
  Status Checkpoint();

  /// Serves one read: returns a fingerprint of the view computed under the
  /// replica's serve lock. The lock models per-replica serving capacity —
  /// concurrent readers of ONE replica serialize, readers of different
  /// replicas proceed in parallel — which is exactly the scaling the
  /// replicated tier exists to buy.
  uint64_t ServeRead() const;

  int64_t reads_served() const { return reads_served_; }

 private:
  Replica(int id, int checkpoint_every)
      : id_(id), checkpoint_every_(checkpoint_every) {}

  /// Applies one sequenced message to the maintainer and advances the
  /// applied LSN, auto-checkpointing on the configured cadence.
  Status Apply(const SourceMessage& m);

  int id_;
  int checkpoint_every_;

  CostMeter meter_;  // never charged: the replica originates no traffic
  TransportChannel<QueryMessage> null_query_channel_;
  std::unique_ptr<Warehouse> warehouse_;

  /// Durable state; `consumed` is the applied LSN.
  WarehouseSiteLog log_;

  bool up_ = true;
  ReplicaMembership membership_ = ReplicaMembership::kInGroup;

  mutable std::mutex serve_mutex_;
  mutable int64_t reads_served_ = 0;
};

}  // namespace wvm

#endif  // WVM_REPLICATION_REPLICA_H_
