#include "recovery/site_log.h"

namespace wvm {

Status RecoveryOptions::Validate(const FaultConfig& fault) const {
  if (enabled && (!fault.enabled || !fault.reliable)) {
    return Status::InvalidArgument(
        "recovery requires the reliable transport mode");
  }
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (backend == JournalBackend::kFile && !enabled) {
    return Status::InvalidArgument(
        "the file journal backend requires recovery to be enabled");
  }
  return Status::OK();
}

}  // namespace wvm
