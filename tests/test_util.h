#ifndef WVM_TESTS_TEST_UTIL_H_
#define WVM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consistency/checker.h"
#include "consistency_reference.h"
#include "core/factory.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/scenarios.h"

namespace wvm {

// A warehouse context with no channel behind it, for tests that drive a
// maintainer's callbacks directly: it allocates query ids and keeps every
// query the maintainer sends.
class RecordingContext : public WarehouseContext {
 public:
  uint64_t NextQueryId() override { return next_query_id_++; }
  void SendQuery(Query query) override { sent.push_back(std::move(query)); }

  std::vector<Query> sent;

 private:
  uint64_t next_query_id_ = 1;
};

// Instantiates a maintainer from its declarative spec, failing the test on
// any setup error.
inline std::unique_ptr<ViewMaintainer> MustMakeMaintainer(
    const MaintainerSpec& spec, ViewDefinitionPtr view) {
  Result<std::unique_ptr<ViewMaintainer>> maintainer =
      MakeMaintainer(spec, std::move(view));
  EXPECT_TRUE(maintainer.ok()) << maintainer.status();
  return std::move(*maintainer);
}

// Builds a ready-to-run simulation for `spec` over the given state,
// failing the test on any setup error.
inline std::unique_ptr<Simulation> MustMakeSim(
    const Catalog& initial, ViewDefinitionPtr view, const MaintainerSpec& spec,
    SimulationOptions options = SimulationOptions()) {
  std::unique_ptr<ViewMaintainer> maintainer = MustMakeMaintainer(spec, view);
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      initial, std::move(view), std::move(maintainer), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return std::move(*sim);
}

// Algorithm-only convenience over the spec-based overload.
inline std::unique_ptr<Simulation> MustMakeSim(
    const Catalog& initial, ViewDefinitionPtr view, Algorithm algorithm,
    SimulationOptions options = SimulationOptions(), int rv_period = 1) {
  MaintainerSpec spec;
  spec.algorithm = algorithm;
  spec.rv_period = rv_period;
  return MustMakeSim(initial, std::move(view), spec, std::move(options));
}

// Runs a paper example under its designated algorithm with the paper's
// exact interleaving and returns the simulation for inspection.
inline std::unique_ptr<Simulation> RunPaperExample(const PaperExample& ex) {
  Result<Algorithm> algorithm = ParseAlgorithm(ex.algorithm);
  EXPECT_TRUE(algorithm.ok()) << algorithm.status();
  std::unique_ptr<Simulation> sim =
      MustMakeSim(ex.initial, ex.view, *algorithm);
  sim->SetUpdateScript(ex.updates);
  ScriptedPolicy policy(ex.actions);
  Status run = RunToQuiescence(sim.get(), &policy);
  EXPECT_TRUE(run.ok()) << ex.name << ": " << run;
  return sim;
}

// Runs `algorithm` over the example's setup with a seeded random
// interleaving and reports the observed consistency levels (checked
// against the full-state reference).
inline ConsistencyReport RunRandomized(const Catalog& initial,
                                       ViewDefinitionPtr view,
                                       Algorithm algorithm,
                                       const std::vector<Update>& updates,
                                       uint64_t seed, int rv_period = 1,
                                       int batch_size = 1) {
  SimulationOptions options;
  options.batch_size = batch_size;
  std::unique_ptr<Simulation> sim =
      MustMakeSim(initial, std::move(view), algorithm, options, rv_period);
  sim->SetUpdateScript(updates);
  RandomPolicy policy(seed);
  Status run = RunToQuiescence(sim.get(), &policy);
  EXPECT_TRUE(run.ok()) << run;
  return CheckedConsistency(sim->state_log());
}

// A fresh, empty directory under the temp directory, removed with all it
// holds when the object dies.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wvm-test-XXXXXX").string();
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  bool empty() const { return std::filesystem::is_empty(path_); }

  // The segment-name prefixes of the WAL segments in the directory
  // (`<name>-<20-digit first lsn>.wal`).
  std::set<std::string> WalNames() const {
    std::set<std::string> names;
    const size_t suffix = 1 + 20 + 4;
    for (const auto& entry : std::filesystem::directory_iterator(path_)) {
      const std::string file = entry.path().filename().string();
      if (file.size() > suffix && entry.path().extension() == ".wal") {
        names.insert(file.substr(0, file.size() - suffix));
      }
    }
    return names;
  }

 private:
  std::string path_;
};

// Points TMPDIR at `dir` while in scope, so a test sees what a component
// leaves behind in the temp directory.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const std::string& dir) {
    if (const char* old = ::getenv("TMPDIR")) {
      old_ = old;
    }
    ::setenv("TMPDIR", dir.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (old_.has_value()) {
      ::setenv("TMPDIR", old_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }
  ScopedTmpdir(const ScopedTmpdir&) = delete;
  ScopedTmpdir& operator=(const ScopedTmpdir&) = delete;

 private:
  std::optional<std::string> old_;
};

}  // namespace wvm

#endif  // WVM_TESTS_TEST_UTIL_H_
