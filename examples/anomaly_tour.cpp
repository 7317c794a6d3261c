// A guided tour of the paper's worked examples: replays Examples 1-5 and
// 7-9 with the exact event interleavings from the text, narrating every
// event, and then shows how ECA repairs the two anomalies the basic
// algorithm exhibits.
//
//   $ ./anomaly_tour
#include <iostream>

#include "consistency/checker.h"
#include "core/factory.h"
#include "sim/policies.h"
#include "workload/scenarios.h"

using namespace wvm;

namespace {

// Runs one paper example under `algorithm` with the paper's interleaving
// and prints the trace.
Relation Replay(const PaperExample& ex, const std::string& algorithm) {
  Result<Algorithm> parsed = ParseAlgorithm(algorithm);
  WVM_CHECK_OK(parsed.status());
  Result<std::unique_ptr<ViewMaintainer>> maintainer =
      MakeMaintainer({.algorithm = *parsed}, ex.view);
  WVM_CHECK_OK(maintainer.status());
  SimulationOptions options;
  options.instrument.record_trace = true;
  Result<std::unique_ptr<Simulation>> sim =
      Simulation::Create(ex.initial, ex.view, std::move(*maintainer),
                         options);
  WVM_CHECK_OK(sim.status());
  (*sim)->SetUpdateScript(ex.updates);
  ScriptedPolicy policy(ex.actions);
  WVM_CHECK_OK(RunToQuiescence(sim->get(), &policy));

  std::cout << (*sim)->trace().ToString();
  ConsistencyReport report = CheckConsistency((*sim)->state_log());
  std::cout << "  => final view under " << algorithm << ": "
            << (*sim)->warehouse_view().ToString() << "\n";
  std::cout << "  => " << report.ToString() << "\n";
  return (*sim)->warehouse_view();
}

}  // namespace

int main() {
  Result<std::vector<PaperExample>> examples = AllPaperExamples();
  WVM_CHECK_OK(examples.status());

  for (const PaperExample& ex : *examples) {
    std::cout << "\n============================================"
              << "====================\n";
    std::cout << ex.name << " (" << ex.algorithm << ")\n";
    std::cout << ex.description << "\n";
    std::cout << "view: " << ex.view->ToString() << "\n\n";

    Relation final_view = Replay(ex, ex.algorithm);
    const bool anomalous = !(final_view == ex.expected_correct_final);
    if (anomalous) {
      std::cout << "\n  ANOMALY: the correct view would be "
                << ex.expected_correct_final.ToString() << ".\n"
                << "  Replaying the same interleaving under ECA:\n\n";
      Relation repaired = Replay(ex, "eca");
      std::cout << (repaired == ex.expected_correct_final
                        ? "  ECA repaired the anomaly.\n"
                        : "  UNEXPECTED: ECA did not repair it!\n");
    }
  }
  std::cout << "\nTour complete.\n";
  return 0;
}
