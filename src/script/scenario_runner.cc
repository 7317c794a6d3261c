#include "script/scenario_runner.h"

#include "core/eca_sc.h"
#include "sim/policies.h"
#include "sim/simulation.h"

namespace wvm {

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    bool record_trace) {
  SimulationOptions options;
  options.instrument.record_trace = record_trace;
  std::unique_ptr<ViewMaintainer> maintainer;
  if (!spec.replicated.empty()) {
    if (spec.algorithm != Algorithm::kEca) {
      return Status::InvalidArgument(
          "replicate applies to the eca algorithm (eca-sc)");
    }
    maintainer = std::make_unique<EcaSc>(spec.view, spec.replicated);
  } else {
    WVM_ASSIGN_OR_RETURN(
        maintainer,
        MakeMaintainer(
            {.algorithm = spec.algorithm, .rv_period = spec.rv_period},
            spec.view));
  }
  WVM_ASSIGN_OR_RETURN(
      std::unique_ptr<Simulation> sim,
      Simulation::Create(spec.initial, spec.view, std::move(maintainer),
                         options));
  sim->SetUpdateScriptBatches(spec.batches);

  switch (spec.order) {
    case ScenarioSpec::Order::kBest: {
      BestCasePolicy policy;
      WVM_RETURN_IF_ERROR(RunToQuiescence(sim.get(), &policy));
      break;
    }
    case ScenarioSpec::Order::kWorst: {
      WorstCasePolicy policy;
      WVM_RETURN_IF_ERROR(RunToQuiescence(sim.get(), &policy));
      break;
    }
    case ScenarioSpec::Order::kRandom: {
      RandomPolicy policy(spec.seed);
      WVM_RETURN_IF_ERROR(RunToQuiescence(sim.get(), &policy));
      break;
    }
  }

  ScenarioOutcome outcome;
  outcome.final_view = sim->warehouse_view();
  WVM_ASSIGN_OR_RETURN(outcome.source_view, sim->SourceViewNow());
  outcome.consistency = CheckConsistency(sim->state_log());
  outcome.trace = sim->trace().ToString();
  outcome.cost = sim->meter().ToString();
  if (spec.expected_final.has_value()) {
    outcome.expectation_met = outcome.final_view == *spec.expected_final;
  }
  return outcome;
}

}  // namespace wvm
