// Byte-stability guard for the table1 forest grid: the experiment output
// every recorded table1 golden is built from must be identical run to run
// and at any cell fan-out under the default options. "auto" resolves to
// suu-t on forests, so this pins SUU-T's per-block LP2 precompute (one cold
// solve per heavy-path block) end to end through the experiment runner.
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "core/generators.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

std::string table1_json(unsigned cell_threads) {
  api::ExperimentRunner::Options ropt;
  ropt.seed = 3;
  ropt.replications = 12;
  ropt.threads = 1;
  ropt.cell_threads = cell_threads;
  api::ExperimentRunner runner(ropt);
  runner.options().strict_eligibility = true;

  std::vector<std::pair<std::string, std::shared_ptr<const core::Instance>>>
      instances;
  for (const int n : {12, 24}) {
    util::Rng rng(3 + static_cast<std::uint64_t>(n));
    instances.emplace_back(
        "out-forest n=" + std::to_string(n),
        std::make_shared<const core::Instance>(core::make_out_forest(
            n, 4, 0.15, 3, core::MachineModel::uniform(0.3, 0.9), rng)));
  }
  runner.add_grid(instances, {"round-robin", "auto"}, api::SolverOptions{},
                  /*auto_lower_bound=*/true);
  runner.run();
  std::ostringstream os;
  runner.print_json(os);
  return os.str();
}

TEST(Table1ForestBytes, StableAcrossRunsAndCellThreads) {
  const std::string once = table1_json(1);
  ASSERT_FALSE(once.empty());
  EXPECT_NE(once.find("\"solver\":\"suu-t\""), std::string::npos);
  EXPECT_EQ(once, table1_json(1)) << "run-to-run bytes drifted";
  EXPECT_EQ(once, table1_json(3)) << "cell fan-out changed bytes";
}

}  // namespace
}  // namespace suu
