#ifndef WVM_RECOVERY_SITE_LOG_H_
#define WVM_RECOVERY_SITE_LOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/status.h"
#include "recovery/journal.h"
#include "recovery/wal.h"
#include "transport/fault_config.h"
#include "transport/transport_channel.h"

namespace wvm {

/// Crash-restart recovery (DESIGN.md Section 2e) of Simulation and
/// MsSimulation. Off by default: no journaling, no checkpoints, and
/// crash-free runs are byte-identical to a build without the subsystem.
struct RecoveryOptions {
  bool enabled = false;
  /// Auto-checkpoint a site after this many consumed events (0 = only the
  /// initial checkpoint and explicit Checkpoint*() calls). MsSimulation
  /// recovers by genesis replay, takes no checkpoints, and requires 0.
  int checkpoint_every = 0;
  /// Medium backing the site-log journals. kMemory (default) keeps the
  /// in-memory model; kFile spills every journal to real on-disk WAL
  /// segments (recovery/wal.h) underneath the same Journal interface —
  /// appends write through before becoming visible, checkpoints drop whole
  /// segments. Requires `enabled`.
  JournalBackend backend = JournalBackend::kMemory;
  /// Directory for the kFile backend's segments (one shared directory; each
  /// journal uses a distinct file-name prefix). Empty = a fresh temp
  /// directory, created at Create and removed when the simulation dies.
  std::string wal_dir;
  /// Tuning for the kFile backend (segment size, group-commit thresholds,
  /// fsync). `dir` and `name` here are ignored — the simulation assigns
  /// them per journal from `wal_dir`.
  WalOptions wal;

  /// Checks the options against each other and against the transport
  /// they run over (`fault`, the downlink's config): recovery re-syncs the
  /// endpoints from the journals, and without the reliable protocol there
  /// is no sequence numbering to key the journals by.
  Status Validate(const FaultConfig& fault) const;
};

/// The durable state of one site, as seen by one peer. The paper's
/// standing assumption (Section 3) is that both sites stay up; this is the
/// medium that lets the simulators revoke that assumption too. A site
/// receives `In` and sends `Out`, and keeps on its simulated disk:
///
///   * an INBOUND journal — every frame the reliable endpoint released to
///     the application, logged under the frame's protocol sequence number
///     BEFORE the cumulative ack covering it leaves the site. The protocol
///     invariant "acked => journaled" is what makes the ack safe: the peer
///     may forget an acked frame, because this journal can always reproduce
///     it after a crash;
///   * an OUTBOUND journal — every frame handed to the endpoint's sender,
///     logged under its sequence number before it reaches the wire;
///   * a consumed floor — how many inbound frames the application had
///     processed (frames are released and consumed strictly in sequence
///     order, so a single number suffices).
///
/// Everything here survives a crash; nothing else at the site does. The
/// checkpointing sites extend it (recovery/checkpointed_site_log.h).
template <typename In, typename Out>
struct SiteLog {
  SiteLog(typename Journal<In>::Serializer in_serializer,
          typename Journal<Out>::Serializer out_serializer)
      : inbound(std::move(in_serializer)),
        outbound(std::move(out_serializer)) {}

  Journal<In> inbound;
  Journal<Out> outbound;
  uint64_t consumed = 0;

  /// kFile backend: backs both journals with segments in `dir`, named
  /// `<site>-in` and `<site>-out`. Must run before either journal takes a
  /// record.
  Status AttachWals(const WalDirectory& dir, const WalOptions& tuning,
                    const std::string& site) {
    WVM_RETURN_IF_ERROR(inbound.AttachWal(dir.Options(tuning, site + "-in")));
    return outbound.AttachWal(dir.Options(tuning, site + "-out"));
  }

  /// On-disk WAL counters of both journals (zero for the memory backend).
  WalStats wal_stats() const {
    WalStats total;
    for (const WalStats* s : {inbound.wal_stats(), outbound.wal_stats()}) {
      if (s != nullptr) {
        total += *s;
      }
    }
    return total;
  }

  /// Recovered restart of the receiver half this site owns: the delivery
  /// watermark comes back as the inbound journal's end, and the
  /// delivered-but-unconsumed tail is re-enqueued — it was journaled before
  /// its ack even though the endpoint's queue died with the site.
  Status RestartReceiver(TransportChannel<In>& channel) const {
    std::deque<In> tail;
    WVM_RETURN_IF_ERROR(inbound.Scan(consumed, inbound.end_lsn(),
                                     [&tail](uint64_t, const In& m) {
                                       tail.push_back(m);
                                       return Status::OK();
                                     }));
    channel.RestartReceiver(inbound.end_lsn(), std::move(tail));
    return Status::OK();
  }

  /// Recovered restart of the sender half this site owns: every retained
  /// outbound record is conservatively re-installed as the unacked window.
  /// Retransmission repairs in-flight loss, the peer's dedup absorbs
  /// duplicates, and its next cumulative ack prunes the excess.
  Status RestartSender(TransportChannel<Out>& channel) const {
    std::map<uint64_t, Out> unacked;
    WVM_RETURN_IF_ERROR(outbound.Scan(outbound.begin_lsn(), outbound.end_lsn(),
                                      [&unacked](uint64_t lsn, const Out& m) {
                                        unacked.emplace(lsn, m);
                                        return Status::OK();
                                      }));
    channel.RestartSender(outbound.end_lsn(), std::move(unacked));
    return Status::OK();
  }
};

/// Write-ahead journaling of one direction, keyed by the protocol's
/// sequence numbers: each fresh frame goes to the sending site's outbound
/// journal before the wire, and each released frame to the receiving
/// site's inbound journal before the covering ack leaves ("acked =>
/// journaled"). The appends cannot fail — the endpoint hands out strictly
/// increasing sequence numbers in exactly journal-append order. Both
/// journals must stay at their addresses while the channel carries traffic.
template <typename T>
void JournalDirection(Journal<T>* sender_outbound, Journal<T>* receiver_inbound,
                      TransportHooks<T>* hooks) {
  hooks->on_send = [sender_outbound](uint64_t seq, const T& m) {
    WVM_REQUIRE(sender_outbound->Append(seq, m).ok(),
                "outbound journal append failed");
  };
  hooks->on_deliver = [receiver_inbound](uint64_t seq, const T& m) {
    WVM_REQUIRE(receiver_inbound->Append(seq, m).ok(),
                "inbound journal append failed");
  };
}

}  // namespace wvm

#endif  // WVM_RECOVERY_SITE_LOG_H_
