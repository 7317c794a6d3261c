// A realistic warehousing scenario in the spirit of the paper's
// introduction: an operational retail system (the legacy source) feeds a
// decision-support warehouse that materializes a revenue view joining
// three base relations. A stream of sales and catalog changes races the
// warehouse's maintenance queries; every maintenance strategy in the
// library is run over the same stream and compared on cost and
// correctness.
//
//   $ ./retail_warehouse [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/strings.h"
#include "consistency/checker.h"
#include "core/factory.h"
#include "core/sc.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/generator.h"

using namespace wvm;

namespace {

// sales(sale, sku), items(sku, cat), categories(cat, margin);
// V = pi_{sale,margin}(sigma_{sale > margin}(sales |x| items |x| cats)).
// Structurally this is the paper's Example 6 chain, which is the point:
// the sample scenario models exactly this kind of decision-support join.
Result<Workload> MakeRetailWorkload(Random* rng) {
  WVM_ASSIGN_OR_RETURN(Workload chain,
                       MakeExample6Workload({/*C=*/60, /*J=*/3}, rng));
  // Re-label the chain with the retail schema.
  Workload retail;
  retail.defs = {
      {"sales", Schema::Ints({"sale", "sku"})},
      {"items", Schema::Ints({"sku", "cat"})},
      {"categories", Schema::Ints({"cat", "margin"})},
  };
  const char* from[] = {"r1", "r2", "r3"};
  for (size_t i = 0; i < 3; ++i) {
    WVM_ASSIGN_OR_RETURN(const Relation* data,
                         chain.initial.Get(from[i]));
    Relation relabeled(retail.defs[i].schema);
    for (const auto& [t, c] : data->entries()) {
      relabeled.Insert(t, c);
    }
    WVM_RETURN_IF_ERROR(
        retail.initial.DefineWithData(retail.defs[i], std::move(relabeled)));
  }
  WVM_ASSIGN_OR_RETURN(
      retail.view,
      ViewDefinition::NaturalJoin(
          "revenue", retail.defs, {"sale", "margin"},
          Predicate::AttrCompare("sale", CompareOp::kGt, "margin")));
  retail.scenario1_indexes = {
      {"sales", "sku", true},
      {"items", "sku", true},
      {"categories", "cat", true},
      {"items", "cat", false},
  };
  return retail;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  Random rng(seed);
  Result<Workload> workload = MakeRetailWorkload(&rng);
  WVM_CHECK_OK(workload.status());
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*workload, /*k=*/60, /*delete_fraction=*/0.3, &rng);
  WVM_CHECK_OK(updates.status());

  std::cout << "retail warehouse demo (seed " << seed << ")\n";
  std::cout << "view: " << workload->view->ToString() << "\n";
  std::cout << "stream: 60 mixed sales/catalog updates racing the "
               "maintenance queries\n\n";
  std::printf("%-14s%12s%12s%12s%14s%12s  %s\n", "algorithm", "messages",
              "bytes", "IO", "view tuples", "replica", "verdict");

  for (Algorithm algorithm :
       {Algorithm::kBasic, Algorithm::kEca, Algorithm::kEcaLocal,
        Algorithm::kLca, Algorithm::kRv, Algorithm::kSc}) {
    Result<std::unique_ptr<ViewMaintainer>> maintainer =
        MakeMaintainer({.algorithm = algorithm, .rv_period = 6},
                       workload->view);
    WVM_CHECK_OK(maintainer.status());
    const StoreCopies* sc =
        dynamic_cast<const StoreCopies*>(maintainer->get());

    SimulationOptions options;
    options.indexes = workload->scenario1_indexes;
    Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
        workload->initial, workload->view, std::move(*maintainer), options);
    WVM_CHECK_OK(sim.status());
    (*sim)->SetUpdateScript(*updates);
    RandomPolicy policy(seed);
    WVM_CHECK_OK(RunToQuiescence(sim->get(), &policy));

    ConsistencyReport report = CheckConsistency((*sim)->state_log());
    std::string verdict = report.complete              ? "complete"
                          : report.strongly_consistent ? "strongly consistent"
                          : report.convergent          ? "convergent only"
                                                       : "CORRUPTED VIEW";
    std::string replica =
        sc != nullptr ? StrCat(sc->ReplicaTupleCount(), " rows") : "-";
    std::printf("%-14s%12lld%12lld%12lld%14lld%12s  %s\n",
                AlgorithmName(algorithm),
                static_cast<long long>((*sim)->meter().messages()),
                static_cast<long long>((*sim)->meter().bytes_transferred()),
                static_cast<long long>((*sim)->io_stats().page_reads),
                static_cast<long long>(
                    (*sim)->warehouse_view().TotalPositive()),
                replica.c_str(), verdict.c_str());
  }

  std::cout << "\nReading: basic corrupts the view under concurrency; the "
               "ECA family stays correct\nwithout replicating base data "
               "(SC's replica column) or recomputing (RV's bytes).\n";
  return 0;
}
