// Consistency audit: empirically certifies the Section 3.1 correctness
// levels of every maintenance strategy by sweeping many seeded random
// interleavings and intersecting the per-run verdicts. This is the
// executable counterpart of the paper's Theorem B.1 / Appendix C claims.
//
//   $ ./consistency_audit [num_seeds] [num_updates]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "consistency/checker.h"
#include "core/factory.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/generator.h"

using namespace wvm;

namespace {

struct Verdicts {
  int runs = 0;
  int convergent = 0;
  int weak = 0;
  int consistent = 0;
  int strong = 0;
  int complete = 0;
};

void Accumulate(const ConsistencyReport& report, Verdicts* v) {
  ++v->runs;
  v->convergent += report.convergent;
  v->weak += report.weakly_consistent;
  v->consistent += report.consistent;
  v->strong += report.strongly_consistent;
  v->complete += report.complete;
}

const char* Mark(int hits, int runs) {
  if (hits == runs) {
    return "always";
  }
  if (hits == 0) {
    return "never";
  }
  return "sometimes";
}

}  // namespace

int main(int argc, char** argv) {
  const int num_seeds = argc > 1 ? std::atoi(argv[1]) : 60;
  const int num_updates = argc > 2 ? std::atoi(argv[2]) : 10;

  std::cout << "auditing " << num_seeds << " random interleavings of "
            << num_updates << " mixed updates per algorithm\n\n";
  std::printf("%-16s%12s%12s%12s%12s%12s\n", "algorithm", "convergent",
              "weak", "consistent", "strong", "complete");

  for (Algorithm algorithm : AllAlgorithms()) {
    Verdicts v;
    for (int seed = 1; seed <= num_seeds; ++seed) {
      Random rng(static_cast<uint64_t>(seed));
      // ECA-Key requires a keyed view; others use the Example 6 chain.
      Result<Workload> workload =
          algorithm == Algorithm::kEcaKey
              ? MakeKeyedWorkload({24, 3}, &rng)
              : MakeExample6Workload({24, 3}, &rng);
      WVM_CHECK_OK(workload.status());
      Result<std::vector<Update>> updates =
          MakeMixedUpdates(*workload, num_updates, 0.35, &rng);
      WVM_CHECK_OK(updates.status());

      // RV with s dividing k so staleness does not mask the comparison;
      // EcaBatch with batches of two.
      Result<std::unique_ptr<ViewMaintainer>> maintainer = MakeMaintainer(
          {.algorithm = algorithm, .rv_period = num_updates % 2 == 0 ? 2 : 1},
          workload->view);
      WVM_CHECK_OK(maintainer.status());
      SimulationOptions options;
      options.batch_size = algorithm == Algorithm::kEcaBatch ? 2 : 1;
      Result<std::unique_ptr<Simulation>> sim =
          Simulation::Create(workload->initial, workload->view,
                             std::move(*maintainer), options);
      WVM_CHECK_OK(sim.status());
      (*sim)->SetUpdateScript(*updates);
      RandomPolicy policy(static_cast<uint64_t>(seed) * 7919);
      WVM_CHECK_OK(RunToQuiescence(sim->get(), &policy));
      Accumulate(CheckConsistency((*sim)->state_log()), &v);
    }
    std::printf("%-16s%12s%12s%12s%12s%12s\n", AlgorithmName(algorithm),
                Mark(v.convergent, v.runs), Mark(v.weak, v.runs),
                Mark(v.consistent, v.runs), Mark(v.strong, v.runs),
                Mark(v.complete, v.runs));
  }

  std::cout << "\nExpected: basic and eca-nocomp fail; eca-nocollect is "
               "convergent but inconsistent;\nthe ECA family is always "
               "strongly consistent; lca and sc are always complete.\n";
  return 0;
}
