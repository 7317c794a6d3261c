#ifndef WVM_RECOVERY_CHECKPOINTED_SITE_LOG_H_
#define WVM_RECOVERY_CHECKPOINTED_SITE_LOG_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "channel/message.h"
#include "channel/wire_codec.h"
#include "core/warehouse.h"
#include "query/catalog.h"
#include "recovery/site_log.h"
#include "source/physical_evaluator.h"

namespace wvm {

/// The site logs of the single-source sites (Simulation's warehouse and
/// source, and every replica of the replicated tier): a SiteLog plus the
/// latest checkpoint, which folds a prefix of both journals into
/// materialized state and lets them be truncated. Record images are the
/// binary wire encoding (channel/wire_codec.h), so the image that is
/// checksummed in memory round-trips through the on-disk WAL backend.

/// Checkpoint of a warehouse site: the maintenance algorithm's full state
/// (MV + UQS + COLLECT progress, captured via ViewMaintainer::SnapshotState)
/// plus the counters replay needs. Relations are copy-on-write, so taking
/// one is cheap.
struct WarehouseCheckpoint {
  std::shared_ptr<const MaintainerSnapshot> maintainer;
  /// The query-id counter at the floor: replayed notifications must
  /// re-allocate the very ids they allocated the first time.
  uint64_t next_query_id = 1;
  /// Inbound frames with seq < this are folded into `maintainer`.
  uint64_t consumed_floor = 0;
};

/// Checkpoint of the source site: logical catalog plus the physical store.
/// The StorageMap snapshot rides the existing copy-on-write row
/// representation of StoredRelation, so checkpointing is O(relations).
struct SourceCheckpoint {
  Catalog catalog;
  StorageMap storage;
  /// Inbound (query) frames with seq < this were already answered.
  uint64_t consumed_floor = 0;
  /// Outbound frames with seq < this are reflected in `storage`; replaying
  /// the update notifications at and above this floor rebuilds the
  /// post-checkpoint base state.
  uint64_t outbound_floor = 0;
};

/// A SiteLog with its latest checkpoint and the auto-checkpoint cadence.
template <typename In, typename Out, typename CheckpointT>
struct CheckpointedSiteLog : SiteLog<In, Out> {
  using SiteLog<In, Out>::SiteLog;

  /// Counts one consumed event that processed `frames` inbound frames;
  /// true when `every` > 0 events have passed since the last checkpoint.
  bool NoteConsumed(uint64_t frames, int every) {
    this->consumed += frames;
    ++events_since_checkpoint;
    return every > 0 && events_since_checkpoint >= every;
  }

  std::optional<CheckpointT> checkpoint;
  int events_since_checkpoint = 0;
};

/// A warehouse site's durable state. Inbound records are source messages
/// (notifications and answers) keyed by the source->warehouse data seq;
/// outbound records are queries keyed by the warehouse->source data seq. A
/// replica is a warehouse site that never sends: its outbound journal
/// stays empty.
struct WarehouseSiteLog
    : CheckpointedSiteLog<SourceMessage, QueryMessage, WarehouseCheckpoint> {
  WarehouseSiteLog()
      : CheckpointedSiteLog(EncodeSourceMessage, EncodeQueryMessage) {}

  /// Folds `warehouse`'s state into a new checkpoint at the consumed floor
  /// and truncates what it made redundant: the consumed inbound prefix,
  /// and outbound frames below the peer's cumulative `acked_floor` (never
  /// needed for re-send).
  Status Checkpoint(const Warehouse& warehouse, uint64_t acked_floor) {
    checkpoint = WarehouseCheckpoint{warehouse.maintainer().SnapshotState(),
                                     warehouse.next_query_id(), consumed};
    WVM_RETURN_IF_ERROR(inbound.TruncateBelow(consumed));
    WVM_RETURN_IF_ERROR(outbound.TruncateBelow(acked_floor));
    events_since_checkpoint = 0;
    return Status::OK();
  }

  /// Restores the checkpointed maintainer state and query-id counter into
  /// `warehouse`. Re-applying the inbound records above the checkpoint's
  /// floor is the caller's step.
  Status RestoreCheckpoint(Warehouse* warehouse) const {
    WVM_RETURN_IF_ERROR(
        warehouse->maintainer().RestoreState(*checkpoint->maintainer));
    warehouse->set_next_query_id(checkpoint->next_query_id);
    return Status::OK();
  }
};

/// The source's durable state, mirror image of the warehouse's. The
/// outbound journal doubles as the source's update history: each journaled
/// notification carries the update(s) it announced, so replaying the
/// notifications above the checkpoint's outbound floor re-executes exactly
/// the updates the checkpointed storage is missing.
struct SourceSiteLog
    : CheckpointedSiteLog<QueryMessage, SourceMessage, SourceCheckpoint> {
  SourceSiteLog()
      : CheckpointedSiteLog(EncodeQueryMessage, EncodeSourceMessage) {}
};

}  // namespace wvm

#endif  // WVM_RECOVERY_CHECKPOINTED_SITE_LOG_H_
