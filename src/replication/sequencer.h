#ifndef WVM_REPLICATION_SEQUENCER_H_
#define WVM_REPLICATION_SEQUENCER_H_

#include <memory>
#include <vector>

#include "channel/message.h"
#include "channel/wire_codec.h"
#include "recovery/journal.h"
#include "transport/transport_channel.h"

namespace wvm {

/// The sequencing point of the replicated warehouse tier (DESIGN.md
/// Section 2g). The lead warehouse consumes the single source->warehouse
/// stream in some total order; the Sequencer stamps each consumed message
/// with a global log sequence number (LSN) and fans it out to every
/// attached replica over its own reliable transport endpoint.
///
/// Two numbering facts carry the whole design:
///
///   * the broadcast history is a Journal keyed by LSN — the same replay
///     substrate src/recovery uses — so a lagging or rejoining replica
///     catches up by scanning [its applied LSN, head) out of the history;
///   * every attached endpoint transmits messages in LSN order starting
///     from the LSN at which it (re)attached, so the reliable protocol's
///     per-channel sequence numbers coincide with global LSNs. "Re-sync the
///     channel" and "replay the journal" are statements about one shared
///     numbering, exactly as in the single-site recovery design.
///
/// Detach/Reattach implement eviction and rejoin: a detached endpoint
/// receives no traffic and holds no retransmission state (the sequencer
/// stops paying for a replica the heartbeat monitor gave up on); a
/// reattaching endpoint restarts both protocol halves at the current head,
/// because the catch-up path has already delivered everything below it.
class Sequencer {
 public:
  Sequencer() : history_(EncodeSourceMessage) {}

  Sequencer(const Sequencer&) = delete;
  Sequencer& operator=(const Sequencer&) = delete;

  /// Adds one replica endpoint (attached), configured with `config` (must
  /// be reliable mode) and a fault stream decorrelated by `salt`. Hooks are
  /// the replica's journaling hooks. Returns the endpoint's index.
  Result<int> AddEndpoint(const FaultConfig& config, uint64_t salt,
                          TransportHooks<SourceMessage> hooks);

  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }

  /// Stamps `m` with the next LSN, appends it to the broadcast history,
  /// and sends it to every attached endpoint.
  Status Broadcast(const SourceMessage& m);

  /// One past the highest stamped LSN.
  uint64_t head_lsn() const { return next_lsn_; }

  /// The durable broadcast history (checksummed, LSN-keyed).
  const Journal<SourceMessage>& history() const { return history_; }

  /// Reads the history record at `lsn`, validating its checksum — the
  /// catch-up read path.
  Result<const SourceMessage*> HistoryRead(uint64_t lsn) const {
    return history_.Read(lsn);
  }

  /// Discards history below `floor` once every replica's checkpoint covers
  /// it (no possible catch-up can start lower).
  Status TrimHistoryBelow(uint64_t floor) {
    return history_.TruncateBelow(floor);
  }

  /// Stops broadcasting to endpoint `r` and drops its retransmission
  /// state. Idempotent.
  void Detach(int r);

  /// Re-syncs endpoint `r` at the current head and resumes broadcasting to
  /// it. Pre: detached.
  void Reattach(int r);

  bool attached(int r) const { return endpoints_[r].attached; }

  TransportChannel<SourceMessage>& channel(int r) {
    return *endpoints_[r].channel;
  }
  const TransportChannel<SourceMessage>& channel(int r) const {
    return *endpoints_[r].channel;
  }

  /// Timed transport work pending on any attached endpoint.
  bool HasTimedWork() const;

  /// Advances transport time one tick on every attached endpoint.
  void Tick();

  /// Aggregated transport counters over all endpoints (attached or not).
  TransportStats stats() const;

 private:
  struct Endpoint {
    std::unique_ptr<TransportChannel<SourceMessage>> channel;
    bool attached = true;
  };

  std::vector<Endpoint> endpoints_;
  Journal<SourceMessage> history_;
  uint64_t next_lsn_ = 0;
};

}  // namespace wvm

#endif  // WVM_REPLICATION_SEQUENCER_H_
