#ifndef WVM_SIM_SIMULATION_H_
#define WVM_SIM_SIMULATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/cost_meter.h"
#include "channel/message.h"
#include "common/result.h"
#include "consistency/state_log.h"
#include "core/warehouse.h"
#include "recovery/site_log.h"
#include "query/catalog.h"
#include "query/composite_view.h"
#include "query/view_def.h"
#include "sim/trace.h"
#include "source/source.h"
#include "transport/fault_config.h"
#include "transport/transport_channel.h"

namespace wvm {

/// The three things that can happen next in an execution. Every action is
/// one atomic event (Section 3); the interleaving policy chooses among the
/// currently enabled actions, which is exactly the nondeterminism the
/// paper's anomalies live in.
enum class SimAction {
  kSourceUpdate,      // S_up: execute the next scripted update (or batch)
  kSourceAnswer,      // S_qu: evaluate the oldest pending query
  kWarehouseStep,     // W_up / W_ans: consume the next source message
  kTransportTick,     // time passes on the wire: delayed frames advance,
                      // retransmission timers fire (faults enabled only)
  kCrashWarehouse,    // the warehouse site crashes (reliable mode only)
  kRestartWarehouse,  // the warehouse site restarts (recovers if enabled)
  kCrashSource,       // the source site crashes (reliable mode only)
  kRestartSource,     // the source site restarts (recovers if enabled)
  kNone,              // nothing enabled: quiescent
};

/// Crash-restart recovery (DESIGN.md Section 2e). Off by default: no
/// journaling, no checkpoints, and crash-free runs are byte-identical to a
/// build without the subsystem. Requires the reliable transport (recovery
/// re-syncs the endpoint from the journals; without the protocol there is
/// no sequence numbering to key them by).
struct RecoveryOptions {
  bool enabled = false;
  /// Auto-checkpoint a site after this many consumed events (0 = only the
  /// initial checkpoint and explicit Checkpoint*() calls).
  int checkpoint_every = 0;
  /// Medium backing the four site-log journals. kMemory (default) keeps the
  /// pre-WAL in-memory model; kFile spills every journal to real on-disk WAL
  /// segments (recovery/wal.h) underneath the same Journal interface —
  /// appends write through before becoming visible, checkpoints drop whole
  /// segments. Requires `enabled`.
  JournalBackend backend = JournalBackend::kMemory;
  /// Directory for the kFile backend's segments (one shared directory; each
  /// journal uses a distinct file-name prefix). Empty = a fresh temp
  /// directory, created at Create and removed when the Simulation dies.
  std::string wal_dir;
  /// Tuning for the kFile backend (segment size, group-commit thresholds,
  /// fsync). `dir` and `name` here are ignored — the simulation assigns
  /// them per journal from `wal_dir`.
  WalOptions wal;
};

/// How the source engine executes — grouped so a benchmark or test can
/// hand around the execution configuration as one value. Defaults match
/// the paper's atomic single-query model.
struct SourceEngineOptions {
  /// When set, a kSourceAnswer event drains ALL pending queries and
  /// evaluates them as one parallel batch against a storage snapshot
  /// (answers still ship in arrival order). Off by default: one query per
  /// event, exactly the paper's atomic S_qu.
  bool parallel_answers = false;
};

/// What the simulation records about its own execution. States default on
/// (the consistency checker needs them), the readable trace defaults off
/// (examples turn it on, benchmarks leave it off).
struct InstrumentationOptions {
  /// Record the V[ss_i] / V[ws_j] sequences for the consistency checker, as
  /// exact deltas: each source update adds V<u>, evaluated over the
  /// source's logical catalog (no page reads are metered), and each
  /// warehouse event adds the maintainer's net change to MV. The source
  /// state after the last scripted update is evaluated from scratch and the
  /// running sum checked against it. Recording costs O(|delta|) per event;
  /// off, no delta is formed or kept.
  bool record_states = true;
  /// Record a readable per-event trace (examples; off for benchmarks).
  bool record_trace = false;
};

struct SimulationOptions {
  PhysicalConfig physical;
  /// Source-side cross-query term cache (off by default; when enabled the
  /// source patches cached term answers incrementally under updates).
  TermCacheConfig term_cache;
  /// Execution knobs of the source engine and the warehouse data plane.
  SourceEngineOptions engine;
  /// What the run records about itself.
  InstrumentationOptions instrument;
  /// Indexes to declare at the source (Scenario 1 only).
  std::vector<IndexSpec> indexes;
  /// Fixed bytes charged per answer tuple (S of Table 1); negative derives
  /// actual widths from the schema.
  int64_t bytes_per_tuple = -1;
  /// Updates per notification; > 1 enables the Section 7 batching
  /// extension (one atomic source event and one notification per batch).
  int batch_size = 1;
  /// The view the source-side states are of, when it is a composite
  /// (union/difference) view maintained by CompositeEca: V[ss_i] and
  /// SourceViewNow() evaluate it, and each update's V<u> is the signed sum
  /// of its branches' substitutions. Null: the ViewDefinition passed to
  /// Create.
  CompositeViewPtr composite_view;
  /// Transport fault schedule for both directions (source->warehouse and
  /// warehouse->source). Off by default: the channels stay plain FIFO and
  /// every run is byte-identical to the pre-transport system.
  FaultConfig fault;
  /// Per-direction asymmetry: when set, the uplink (warehouse->source
  /// query path) uses this schedule instead of `fault`, which then governs
  /// only the downlink. Must agree with `fault` on `enabled` and
  /// `reliable` — the two directions are halves of one conversation and
  /// cannot mix transport modes. Each FaultConfig can additionally skew its
  /// own ack path via FaultConfig::ack, so "lossy uplink, clean downlink"
  /// and "clean data, lossy acks" are both expressible.
  std::optional<FaultConfig> fault_up;
  /// Crash-restart recovery: journaling, checkpoints, and the kCrash /
  /// kRestart actions' recovered-restart path.
  RecoveryOptions recovery;
};

/// Owns one complete single-source / single-warehouse system: the source
/// (logical + physical state), the two FIFO channels, the warehouse running
/// one maintenance algorithm, the metering, and the state log. Exposes the
/// enabled-action interface that interleaving policies drive.
class Simulation {
 public:
  static Result<std::unique_ptr<Simulation>> Create(
      const Catalog& initial, ViewDefinitionPtr view,
      std::unique_ptr<ViewMaintainer> maintainer,
      const SimulationOptions& options);

  /// Closes the site-log WALs and removes the temp segment directory when
  /// the simulation created one (RecoveryOptions::wal_dir empty).
  ~Simulation();

  /// Sets the updates the source will execute, in order, grouped into
  /// batches of SimulationOptions::batch_size. Ids are assigned at
  /// execution time (source execution order defines U_1, U_2, ...).
  void SetUpdateScript(std::vector<Update> script);

  /// Sets explicitly grouped batches: each inner vector is executed as one
  /// atomic source event with one notification (used for modifications —
  /// delete+insert pairs — and irregular batching).
  void SetUpdateScriptBatches(std::vector<std::vector<Update>> batches);

  bool CanSourceUpdate() const;
  bool CanSourceAnswer() const;
  bool CanWarehouseStep() const;
  /// Frames in flight or retransmission timers that need transport time to
  /// advance. Always false with faults disabled.
  bool CanTransportTick() const;
  bool Quiescent() const;

  Status StepSourceUpdate();
  Status StepSourceAnswer();
  Status StepWarehouse();
  Status StepTransportTick();

  // --- Crash-restart (requires the reliable transport mode) -----------------
  // A crash is atomic between schedule events: the site's volatile state —
  // endpoint buffers, maintainer bookkeeping — vanishes; frames already on
  // the wire survive (the wire is not part of either site). What a restart
  // rebuilds depends on RecoveryOptions::enabled: with recovery, checkpoint
  // + journal replay + endpoint re-sync restore the exact pre-crash state;
  // without, the site resumes bare and the lost-state anomaly is observable.

  bool warehouse_up() const { return warehouse_up_; }
  bool source_up() const { return source_up_; }
  bool CanCrashWarehouse() const;
  bool CanCrashSource() const;

  Status CrashWarehouse();
  Status RestartWarehouse();
  Status CrashSource();
  Status RestartSource();

  /// Folds the site's current state into a new checkpoint and truncates the
  /// prefix of its journals the checkpoint made redundant. Recovery mode
  /// only; an initial checkpoint is taken automatically at Create.
  Status CheckpointWarehouse();
  Status CheckpointSource();

  /// The durable (crash-surviving) state of each site; mutable access is
  /// for tests that corrupt journal records.
  const WarehouseSiteLog& warehouse_log() const { return wh_log_; }
  WarehouseSiteLog& mutable_warehouse_log() { return wh_log_; }
  const SourceSiteLog& source_log() const { return src_log_; }
  SourceSiteLog& mutable_source_log() { return src_log_; }

  /// Performs `action`; kNone is an error.
  Status Step(SimAction action);

  /// Installs an observer invoked for every source message the warehouse
  /// consumes, in consumption order, immediately before the maintainer
  /// processes it. The replicated tier (src/replication) uses this as the
  /// sequencing point: the lead warehouse's consumption order IS the total
  /// order its Sequencer stamps and broadcasts. Not invoked during journal
  /// replay after a crash (those consumptions were observed before the
  /// crash; re-observing them would double-broadcast).
  void SetConsumedMessageTap(std::function<void(const SourceMessage&)> tap) {
    message_tap_ = std::move(tap);
  }

  /// Drains every enabled action FIFO-fashion with the given priority
  /// order helper; used by RunPolicy and the policies header.
  const Catalog& source_catalog() const { return source_->catalog(); }
  const Relation& warehouse_view() const {
    return warehouse_->maintainer().view_contents();
  }
  const ViewMaintainer& maintainer() const {
    return warehouse_->maintainer();
  }
  ViewMaintainer& mutable_maintainer() { return warehouse_->maintainer(); }
  /// The warehouse as a context, for driving maintainer-side operations
  /// that the paper models as extra warehouse events (e.g. a deferred
  /// flush triggered by a reader's query against the view).
  WarehouseContext* warehouse_context() { return warehouse_.get(); }
  const ViewDefinitionPtr& view() const { return view_; }
  const CostMeter& meter() const { return meter_; }
  /// Combined fault/protocol counters over both directions (all zero with
  /// faults disabled).
  TransportStats transport_stats() const {
    TransportStats s = to_warehouse_.stats();
    s += to_source_.stats();
    return s;
  }
  const IOStats& io_stats() const { return source_->io_stats(); }
  /// Aggregated on-disk WAL counters over the four site-log journals (all
  /// zero unless RecoveryOptions::backend is kFile).
  WalStats wal_stats() const;
  /// Directory holding the WAL segments ("" for the memory backend).
  const std::string& wal_dir() const { return wal_dir_; }
  const StateLog& state_log() const { return state_log_; }
  const Trace& trace() const { return trace_; }
  size_t updates_remaining() const;
  uint64_t updates_executed() const { return next_update_id_ - 1; }

  /// The view evaluated directly at the source right now (V[current ss]).
  Result<Relation> SourceViewNow() const;

 private:
  Simulation(ViewDefinitionPtr view, const SimulationOptions& options)
      : view_(std::move(view)),
        options_(options),
        meter_(options.bytes_per_tuple) {}

  /// Records the source state an update event produced from its view
  /// delta; after the last scripted update, from scratch instead (checked
  /// against the running sum).
  Status RecordSourceState(Relation delta);
  void RecordWarehouseState();

  /// kFile backend: resolves the segment directory (temp when unset) and
  /// attaches one WAL per site-log journal. Called by Create before any
  /// traffic can journal a record.
  Status AttachSiteLogWals();
  /// Shared precondition of every crash/restart entry point.
  Status CheckCrashSupported() const;
  /// Recovered-restart bodies (recovery mode only).
  Status RecoverWarehouse();
  Status RecoverSource();
  /// Bumps a site's consumed-event counter and auto-checkpoints when the
  /// configured interval elapses. No-ops with recovery disabled.
  Status NoteWarehouseConsumed(uint64_t frames);
  Status NoteSourceConsumed(uint64_t frames);

  ViewDefinitionPtr view_;
  CompositeViewPtr source_view_;  // what V[ss_i] is of: options or {+view_}
  SimulationOptions options_;
  CostMeter meter_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Warehouse> warehouse_;
  TransportChannel<SourceMessage> to_warehouse_;
  TransportChannel<QueryMessage> to_source_;
  StateLog state_log_;
  Trace trace_;
  std::vector<std::vector<Update>> script_;  // one entry per atomic batch
  size_t cursor_ = 0;
  uint64_t next_update_id_ = 1;
  uint64_t event_seq_ = 0;  // logical clock across all sites
  // Crash-restart state. The site logs model each site's disk: populated
  // only in recovery mode, and the only site state a kCrash leaves intact.
  WarehouseSiteLog wh_log_;
  SourceSiteLog src_log_;
  std::string wal_dir_;          // non-empty iff the kFile backend is active
  bool owns_wal_dir_ = false;    // Create made a temp dir; destructor removes
  bool warehouse_up_ = true;
  bool source_up_ = true;
  bool replaying_ = false;  // suppresses state-log records during replay
  std::function<void(const SourceMessage&)> message_tap_;
};

}  // namespace wvm

#endif  // WVM_SIM_SIMULATION_H_
