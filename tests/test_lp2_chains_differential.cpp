// LP2 chains oracle (labelled `differential` in ctest): the default-path LP2
// relaxation of make_chains(nc, 2, 5, 4) instances must solve to Optimal
// under every pricing rule — never NumericalFailure, which the revised
// engine's Devex path once hit on most 32+-chain instances when it priced
// off stale incremental reduced costs — and every rule must reach the same
// fractional optimum t*. On the 16-chain instances t* must also equal the
// dense tableau oracle's objective (tests/lp_tableau_oracle.hpp).
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "core/generators.hpp"
#include "lp/simplex.hpp"
#include "lp_tableau_oracle.hpp"
#include "rounding/lp2.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

// LP2 (paper Section 4) over `chains`, written out independently of
// rounding/lp2.cpp: min t s.t. mass >= 1 per job, x_ij <= d_j, d_j >= 1,
// machine loads <= t, chain lengths <= t.
lp::Problem lp2_program(const core::Instance& inst,
                        const std::vector<std::vector<int>>& chains) {
  lp::Problem p;
  const int t = p.add_var(1.0);
  std::vector<lp::Row> loads(static_cast<std::size_t>(inst.num_machines()));
  std::vector<int> d(static_cast<std::size_t>(inst.num_jobs()), -1);
  for (const auto& chain : chains) {
    lp::Row len;
    len.rel = lp::Rel::Le;
    for (const int j : chain) {
      const int dj = p.add_var(0.0);
      d[static_cast<std::size_t>(j)] = dj;
      len.terms.emplace_back(dj, 1.0);
      lp::Row cover;
      cover.rel = lp::Rel::Ge;
      cover.rhs = 1.0;
      for (int i = 0; i < inst.num_machines(); ++i) {
        const double e = inst.ell_capped(i, j, 1.0);
        if (e <= 1e-12) continue;
        const int x = p.add_var(0.0);
        cover.terms.emplace_back(x, e);
        loads[static_cast<std::size_t>(i)].terms.emplace_back(x, 1.0);
        lp::Row cap;
        cap.rel = lp::Rel::Le;
        cap.terms = {{x, 1.0}, {dj, -1.0}};
        p.add_row(std::move(cap));
      }
      p.add_row(std::move(cover));
      lp::Row dmin;
      dmin.rel = lp::Rel::Ge;
      dmin.rhs = 1.0;
      dmin.terms = {{dj, 1.0}};
      p.add_row(std::move(dmin));
    }
    len.terms.emplace_back(t, -1.0);
    p.add_row(std::move(len));
  }
  for (lp::Row& load : loads) {
    if (load.terms.empty()) continue;
    load.rel = lp::Rel::Le;
    load.terms.emplace_back(t, -1.0);
    p.add_row(std::move(load));
  }
  return p;
}

TEST(Lp2ChainsDifferential, EveryRuleOptimalAndMatchesTheOracle) {
  const lp::PricingRule rules[] = {lp::PricingRule::Dantzig,
                                   lp::PricingRule::Devex};
  for (const int nc : {16, 32, 64}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng rng(seed);
      const core::Instance inst = core::make_chains(
          nc, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
      const auto chains = inst.dag().chains();
      const lp::Problem program = lp2_program(inst, chains);
      const std::string at = "chains=" + std::to_string(nc) +
                             " seed=" + std::to_string(seed);
      // The pipeline (Devex) throws on anything but Optimal.
      const double reference =
          rounding::solve_and_round_lp2(inst, chains).t_fractional;
      for (const lp::PricingRule rule : rules) {
        const std::string ctx = at + " pricing=" + lp::to_string(rule);
        lp::SimplexOptions opt;
        opt.pricing = rule;
        const lp::Solution sol = lp::solve_simplex(program, opt);
        ASSERT_EQ(sol.status, lp::Status::Optimal)
            << ctx << ": " << lp::to_string(sol.status);
        EXPECT_NEAR(sol.objective, reference, 1e-9 * std::fabs(reference))
            << ctx;
      }
      if (nc == 16) {
        const lp::Solution ref = lp::oracle::solve_tableau(program);
        ASSERT_EQ(ref.status, lp::Status::Optimal) << at;
        EXPECT_NEAR(reference, ref.objective, 1e-9 * std::fabs(ref.objective))
            << at << ": revised t* differs from the tableau oracle";
      }
    }
  }
}

TEST(Lp2ChainsDifferential, FormerFalseUnboundedInstancesSolve) {
  // Two instances on which the revised engine's phase 2 once returned a
  // false "unbounded" (a stale reduced cost with no leaving row), failing
  // the request: a 64-chain
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
