#ifndef WVM_CORE_FACTORY_H_
#define WVM_CORE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/self_maintain.h"
#include "core/warehouse.h"

namespace wvm {

/// Every maintenance strategy in the repository: the paper's contribution
/// (the ECA family), its baselines (basic, RV, SC), the complete variant
/// (LCA), the two ablations of ECA, the Section 7 batching extension, and
/// the constraint-driven self-maintainer.
enum class Algorithm {
  kBasic,
  kEca,
  kEcaNoCompensation,  // ablation: ECA minus compensating queries
  kEcaNoCollect,       // ablation: ECA applying answers immediately
  kEcaKey,
  kEcaLocal,
  kLca,
  kRv,
  kSc,
  kEcaBatch,
  kSelfMaintain,       // ECA + local answers proven by SchemaConstraints
};

const char* AlgorithmName(Algorithm algorithm);

/// All algorithms, in the order above.
std::vector<Algorithm> AllAlgorithms();

/// Declarative maintainer construction: the policy plus every per-policy
/// knob in one value. The view's SchemaConstraints travel inside the
/// ViewDefinition itself, so a spec fully determines the maintainer.
struct MaintainerSpec {
  Algorithm algorithm = Algorithm::kEca;
  /// RV's recomputation period s (ignored by the others).
  int rv_period = 1;
  /// kSelfMaintain's decision-procedure knobs (ignored by the others).
  SelfMaintainOptions self_maintain{};
};

Result<std::unique_ptr<ViewMaintainer>> MakeMaintainer(
    const MaintainerSpec& spec, ViewDefinitionPtr view);

/// Legacy shim over the spec-based overload.
Result<std::unique_ptr<ViewMaintainer>> MakeMaintainer(Algorithm algorithm,
                                                       ViewDefinitionPtr view,
                                                       int rv_period = 1);

/// Parses "basic", "eca", "eca-key", ... (the AlgorithmName spellings).
Result<Algorithm> ParseAlgorithm(const std::string& name);

}  // namespace wvm

#endif  // WVM_CORE_FACTORY_H_
