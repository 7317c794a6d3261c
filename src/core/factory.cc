#include "core/factory.h"

#include "common/strings.h"
#include "core/basic.h"
#include "core/eca.h"
#include "core/eca_batch.h"
#include "core/eca_key.h"
#include "core/eca_local.h"
#include "core/lca.h"
#include "core/rv.h"
#include "core/sc.h"

namespace wvm {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return "basic";
    case Algorithm::kEca:
      return "eca";
    case Algorithm::kEcaNoCompensation:
      return "eca-nocomp";
    case Algorithm::kEcaNoCollect:
      return "eca-nocollect";
    case Algorithm::kEcaKey:
      return "eca-key";
    case Algorithm::kEcaLocal:
      return "eca-local";
    case Algorithm::kLca:
      return "lca";
    case Algorithm::kRv:
      return "rv";
    case Algorithm::kSc:
      return "sc";
    case Algorithm::kEcaBatch:
      return "eca-batch";
    case Algorithm::kSelfMaintain:
      return "self-maint";
  }
  return "unknown";
}

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kBasic,        Algorithm::kEca,
          Algorithm::kEcaNoCompensation, Algorithm::kEcaNoCollect,
          Algorithm::kEcaKey,       Algorithm::kEcaLocal,
          Algorithm::kLca,          Algorithm::kRv,
          Algorithm::kSc,           Algorithm::kEcaBatch,
          Algorithm::kSelfMaintain};
}

Result<std::unique_ptr<ViewMaintainer>> MakeMaintainer(
    const MaintainerSpec& spec, ViewDefinitionPtr view) {
  switch (spec.algorithm) {
    case Algorithm::kBasic:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<BasicIncremental>(std::move(view)));
    case Algorithm::kEca:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<Eca>(std::move(view)));
    case Algorithm::kEcaNoCompensation: {
      Eca::Options options;
      options.compensate = false;
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<Eca>(std::move(view), options));
    }
    case Algorithm::kEcaNoCollect: {
      Eca::Options options;
      options.apply_immediately = true;
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<Eca>(std::move(view), options));
    }
    case Algorithm::kEcaKey:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<EcaKey>(std::move(view)));
    case Algorithm::kEcaLocal:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<EcaLocal>(std::move(view)));
    case Algorithm::kLca:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<Lca>(std::move(view)));
    case Algorithm::kRv:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<RecomputeView>(std::move(view), spec.rv_period));
    case Algorithm::kSc:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<StoreCopies>(std::move(view)));
    case Algorithm::kEcaBatch:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<EcaBatch>(std::move(view)));
    case Algorithm::kSelfMaintain:
      return std::unique_ptr<ViewMaintainer>(
          std::make_unique<SelfMaintainer>(std::move(view),
                                           spec.self_maintain));
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm a : AllAlgorithms()) {
    if (name == AlgorithmName(a)) {
      return a;
    }
  }
  return Status::NotFound(StrCat("unknown algorithm '", name, "'"));
}

}  // namespace wvm
