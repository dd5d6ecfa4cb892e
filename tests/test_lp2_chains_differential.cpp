// LP2 chains oracle (labelled `differential` in ctest): the default-path LP2
// relaxation of make_chains(nc, 2, 5, 4) instances must finish on the engine
// it started on under every pricing rule — no revised-engine abort re-solved
// on the dense tableau — and every rule must reach the same fractional
// optimum t*. From 32 chains up the Auto engine picks the revised simplex,
// whose Devex path once priced off stale incremental reduced costs, took a
// false phase-1 "unbounded" verdict and fell back on most instances. 16
// chains stays on the tableau and anchors the comparison.
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "core/generators.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "rounding/lp2.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

TEST(Lp2ChainsDifferential, NoTableauFallbackAndRulesAgree) {
  if (!obs::compiled_in) {
    GTEST_SKIP() << "observability compiled out: fallbacks are uncounted";
  }
  obs::Counter& fallbacks =
      obs::Registry::global().counter("suu_lp_tableau_fallbacks_total");
  const lp::PricingRule rules[] = {lp::PricingRule::Auto,
                                   lp::PricingRule::Dantzig,
                                   lp::PricingRule::Devex};
  for (const int nc : {16, 32, 64}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng rng(seed);
      const core::Instance inst = core::make_chains(
          nc, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
      const auto chains = inst.dag().chains();
      double reference = 0.0;
      for (const lp::PricingRule rule : rules) {
        const std::string ctx = "chains=" + std::to_string(nc) +
                                " seed=" + std::to_string(seed) +
                                " pricing=" + lp::to_string(rule);
        const std::uint64_t before = fallbacks.value();
        const rounding::Lp2Result res = rounding::solve_and_round_lp2(
            inst, chains, lp::SimplexEngine::Auto, rule);
        EXPECT_EQ(fallbacks.value() - before, 0U)
            << ctx << ": the solve fell back to the tableau engine";
        if (rule == rules[0]) {
          reference = res.t_fractional;
          continue;
        }
        EXPECT_NEAR(res.t_fractional, reference,
                    1e-9 * std::fabs(reference))
            << ctx;
      }
    }
  }
}

TEST(Lp2ChainsDifferential, FormerFalseUnboundedInstancesSolve) {
  // Two instances on which the revised engine's phase 2 once returned a
  // false "unbounded" (a stale reduced cost with no leaving row) with no
  // tableau fallback to catch it, failing the request: a 64-chain
  // instance in SUU-C's LP2 and a 256-job forest in the heavy-path LP2
  // lower bound. The seeds follow the instance-stream derivation of
  // perfbench's dag_solve workload, which had to exclude both classes.
  {
    util::Rng rng = util::Rng(106).child(0x1257u).child(356);
    const core::Instance inst = core::make_chains(
        64, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
    const rounding::Lp2Result res =
        rounding::solve_and_round_lp2(inst, inst.dag().chains());
    EXPECT_GT(res.t_fractional, 0.0);
  }
  {
    util::Rng rng = util::Rng(8).child(0x1257u).child(344);
    const core::Instance inst = core::make_out_forest(
        256, 8, 0.1, 3, core::MachineModel::uniform(0.3, 0.9), rng);
    EXPECT_GT(api::lower_bound_auto(inst).value, 0.0);
  }
}

}  // namespace
}  // namespace suu
