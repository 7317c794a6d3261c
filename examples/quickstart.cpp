// Quickstart: the smallest end-to-end use of the library.
//
// Builds a source with two base relations, defines a warehouse view over
// their natural join, runs the Eager Compensating Algorithm through a
// concurrent update stream, and prints the event trace plus the
// consistency verdict.
//
//   $ ./quickstart
#include <iostream>

#include "consistency/checker.h"
#include "core/factory.h"
#include "sim/policies.h"
#include "sim/simulation.h"

using namespace wvm;

int main() {
  // --- 1. Describe the source data -----------------------------------------
  Schema accounts_schema = Schema::Ints({"acct", "cust"});
  Schema customers_schema = Schema::Ints({"cust", "region"});
  Catalog initial;
  WVM_CHECK_OK(initial.DefineWithData(
      {"accounts", accounts_schema},
      Relation::FromTuples(accounts_schema, {Tuple::Ints({100, 1}),
                                             Tuple::Ints({101, 2})})));
  WVM_CHECK_OK(initial.DefineWithData(
      {"customers", customers_schema},
      Relation::FromTuples(customers_schema, {Tuple::Ints({1, 7}),
                                              Tuple::Ints({2, 8})})));

  // --- 2. Define the warehouse view -----------------------------------------
  // V = pi_{acct,region}(accounts |x| customers)
  Result<ViewDefinitionPtr> view = ViewDefinition::NaturalJoin(
      "V",
      {{"accounts", accounts_schema}, {"customers", customers_schema}},
      {"acct", "region"});
  WVM_CHECK_OK(view.status());
  std::cout << "view: " << (*view)->ToString() << "\n";

  // --- 3. Assemble the simulated warehouse system ---------------------------
  SimulationOptions options;
  options.instrument.record_trace = true;
  Result<std::unique_ptr<ViewMaintainer>> eca =
      MakeMaintainer({.algorithm = Algorithm::kEca}, *view);
  WVM_CHECK_OK(eca.status());
  Result<std::unique_ptr<Simulation>> sim =
      Simulation::Create(initial, *view, std::move(*eca), options);
  WVM_CHECK_OK(sim.status());

  // --- 4. Concurrent updates at the source ----------------------------------
  (*sim)->SetUpdateScript({
      Update::Insert("accounts", Tuple::Ints({102, 1})),
      Update::Delete("customers", Tuple::Ints({2, 8})),
      Update::Insert("customers", Tuple::Ints({3, 9})),
      Update::Insert("accounts", Tuple::Ints({103, 3})),
  });

  // A random interleaving: updates race the warehouse's queries, which is
  // exactly when the basic algorithm would corrupt the view.
  RandomPolicy policy(/*seed=*/2026);
  WVM_CHECK_OK(RunToQuiescence(sim->get(), &policy));

  // --- 5. Inspect the outcome ------------------------------------------------
  std::cout << "\nevent trace:\n" << (*sim)->trace().ToString();
  std::cout << "final warehouse view: "
            << (*sim)->warehouse_view().ToString() << "\n";
  Result<Relation> at_source = (*sim)->SourceViewNow();
  WVM_CHECK_OK(at_source.status());
  std::cout << "view evaluated at source: " << at_source->ToString() << "\n";

  ConsistencyReport report = CheckConsistency((*sim)->state_log());
  std::cout << "consistency: " << report.ToString() << "\n";
  std::cout << "cost: " << (*sim)->meter().ToString() << "\n";
  return report.strongly_consistent ? 0 : 1;
}
