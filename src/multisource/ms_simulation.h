#ifndef WVM_MULTISOURCE_MS_SIMULATION_H_
#define WVM_MULTISOURCE_MS_SIMULATION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "consistency/state_log.h"
#include "multisource/ms_maintainer.h"
#include "multisource/ms_message.h"
#include "query/catalog.h"
#include "query/view_def.h"
#include "recovery/site_log.h"
#include "transport/fault_config.h"
#include "transport/transport_channel.h"

namespace wvm {

/// An atomic event of the multi-source system: some site makes one step.
struct MsAction {
  enum class Kind {
    kSourceUpdate,
    kSourceAnswer,
    kWarehouseStep,
    kTransportTick,  // time passes on every wire at once (faults only)
  };
  Kind kind;
  size_t source;  // which source (kTransportTick: unused, always 0)
};

/// Best-case scheduling priority of an action kind: warehouse steps drain
/// before answers are produced, answers before wire time passes, wire time
/// before new updates start, so each update's full round trip completes
/// before the next update anywhere. Higher wins. Deliberately independent
/// of the enum's declaration order — reordering Kind must not silently
/// change the schedule.
int MsActionPriority(MsAction::Kind kind);

struct MsSimulationOptions {
  /// Downlink (source -> warehouse) fault schedule, applied independently
  /// to every source's channel (per-source salts decorrelate the streams).
  /// Off by default: plain FIFO channels, byte-identical to the
  /// pre-transport system.
  FaultConfig fault;
  /// Uplink (warehouse -> source fragment-request path) override; must
  /// agree with `fault` on `enabled` and `reliable`. Unset = symmetric.
  std::optional<FaultConfig> fault_up;
  /// Crash-restart recovery: journaling plus the Crash*/Restart* methods'
  /// recovered-restart path. The warehouse recovers by GENESIS REPLAY (see
  /// MsSimulation), so `checkpoint_every` must be 0. Requires the reliable
  /// transport mode.
  RecoveryOptions recovery;
};

/// A warehouse integrating N autonomous sources, each with its own
/// relations, its own update script, and its own channel pair. Within a
/// source everything is ordered; across sources nothing is — realizing the
/// environment Section 7 reserves for future work. The channels are
/// TransportChannels, so the Section 7 schedules compose with the
/// transport work: per-source faults (asymmetric per direction via
/// fault_up and FaultConfig::ack) and site crashes.
///
/// The state log records V over the MERGED catalog after every source
/// update (the global state sequence ss_0, ss_1, ...) and the warehouse
/// view after every warehouse event, so the single-source consistency
/// checker applies unchanged — and shows which guarantees survive the
/// multi-source generalization.
///
/// Recovery model (MsSimulationOptions::recovery): base data (the
/// per-source catalogs and the merged mirror) lives on disk and survives
/// any crash, as in the single-source model. The warehouse's volatile
/// state — maintainer bookkeeping, query-id counter, endpoint buffers — is
/// rebuilt by genesis replay: the initial merged state is checkpoint zero,
/// and every consumed message is re-executed from the per-source inbound
/// journals, sequenced by a global consumption-order journal of source
/// indices. Per-source FIFO makes each journal's LSN order the per-source
/// consumption order, and the consumption journal restores the
/// cross-source interleaving, so replay allocates the same query ids the
/// original run did.
class MsSimulation {
 public:
  /// Each catalog holds the relations owned by one source; relation names
  /// must be globally unique. The view may span all of them.
  static Result<std::unique_ptr<MsSimulation>> Create(
      std::vector<Catalog> per_source, ViewDefinitionPtr view,
      std::unique_ptr<MsMaintainer> maintainer,
      const MsSimulationOptions& options = {});

  ~MsSimulation();  // out of line: Context is incomplete here

  /// Per-source update script; the interleaving ACROSS sources is chosen
  /// by the driving policy.
  Status SetUpdateScript(size_t source, std::vector<Update> script);

  size_t num_sources() const { return sources_.size(); }

  // A source index >= num_sources() is rejected: the Step*, Crash* and
  // Restart* methods return OutOfRange, the Can* queries return false.
  bool CanSourceUpdate(size_t source) const;
  bool CanSourceAnswer(size_t source) const;
  bool CanWarehouseStep(size_t source) const;
  /// Frames in flight or retransmission timers on any channel. Always
  /// false with faults disabled.
  bool CanTransportTick() const;
  bool Quiescent() const;

  Status StepSourceUpdate(size_t source);
  Status StepSourceAnswer(size_t source);
  Status StepWarehouse(size_t source);
  /// Advances every channel one tick (the wires share one clock).
  Status StepTransportTick();

  // --- Crash-restart (requires reliable transport AND recovery) -------------
  // A crash is atomic between schedule events: the site's volatile state
  // vanishes; frames on the wire survive. The warehouse's recovered
  // restart is a genesis replay (see the class comment); a source restart
  // re-enqueues delivered-but-unanswered fragment requests from its
  // inbound journal and re-installs its outbound suffix as the unacked
  // window (its base data never left the disk).

  bool warehouse_up() const { return warehouse_up_; }
  bool source_up(size_t source) const {
    return source < source_up_.size() && source_up_[source] != 0;
  }
  bool CanCrashWarehouse() const;
  bool CanCrashSource(size_t source) const;

  Status CrashWarehouse();
  Status RestartWarehouse();
  Status CrashSource(size_t source);
  Status RestartSource(size_t source);

  /// All currently enabled actions (for policies). Crash/restart is driven
  /// directly, never scheduled.
  std::vector<MsAction> EnabledActions() const;

  /// Runs to quiescence choosing uniformly among enabled actions.
  Status RunRandom(uint64_t seed);

  /// Runs to quiescence answering and delivering eagerly (each update's
  /// full round trip completes before the next update anywhere).
  Status RunBestCase();

  const Relation& warehouse_view() const {
    return maintainer_->view_contents();
  }
  const MsMaintainer& maintainer() const { return *maintainer_; }
  /// The view over the merged current state of all sources.
  Result<Relation> GlobalViewNow() const;
  const StateLog& state_log() const { return state_log_; }
  int64_t fragment_requests() const { return fragment_requests_; }
  int64_t fragment_tuples() const { return fragment_tuples_; }
  /// Combined transport counters over every channel of every source.
  TransportStats transport_stats() const;
  /// Aggregated on-disk WAL counters over every journal (all zero unless
  /// the backend is kFile).
  WalStats wal_stats() const;
  /// Directory holding the WAL segments ("" for the memory backend).
  const std::string& wal_dir() const { return wal_dir_.path(); }

 private:
  class Context;

  MsSimulation() = default;

  /// OutOfRange unless `source` < num_sources().
  Status CheckSource(size_t source) const;
  Status CheckCrashSupported() const;

  ViewDefinitionPtr view_;
  MsSimulationOptions options_;
  std::unique_ptr<MsMaintainer> maintainer_;
  std::unique_ptr<Context> context_;
  std::vector<Catalog> sources_;
  Catalog merged_;   // mirror of all sources, for global states
  Catalog genesis_;  // the initial merged state: replay's checkpoint zero
  std::map<std::string, size_t> owner_;
  // One channel pair per source; unique_ptr because TransportChannel is
  // pinned (the endpoint holds callbacks into it).
  std::vector<std::unique_ptr<TransportChannel<MsSourceMessage>>> to_warehouse_;
  std::vector<std::unique_ptr<TransportChannel<FragmentRequest>>> to_source_;
  std::vector<std::vector<Update>> scripts_;
  std::vector<size_t> cursors_;
  StateLog state_log_;
  uint64_t event_seq_ = 0;  // logical clock across all sites, stamps states
  uint64_t next_update_id_ = 1;
  int64_t fragment_requests_ = 0;
  int64_t fragment_tuples_ = 0;
  // Durable recovery state (populated only with recovery enabled). Keyed
  // by the reliable protocol's per-channel sequence numbers, exactly as in
  // the single-source site logs. The WAL directory is declared first so
  // the journals close before it goes; the log vectors are sized once at
  // Create, because the channels' journaling hooks hold their elements'
  // addresses.
  WalDirectory wal_dir_;
  /// The warehouse site's log toward each source.
  std::vector<SiteLog<MsSourceMessage, FragmentRequest>> wh_logs_;
  /// Source site s's log.
  std::vector<SiteLog<FragmentRequest, MsSourceMessage>> src_logs_;
  /// Warehouse site: source index of each consumed message, LSN = global
  /// consumption counter. This is what makes genesis replay deterministic
  /// across sources.
  std::optional<Journal<uint64_t>> consumed_order_;
  bool warehouse_up_ = true;
  std::vector<uint8_t> source_up_;
  bool replaying_ = false;  // suppresses sends/metering/state records
};

}  // namespace wvm

#endif  // WVM_MULTISOURCE_MS_SIMULATION_H_
