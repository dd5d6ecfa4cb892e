// LP2 chains oracle (labelled `differential` in ctest): the default path
// (solve_and_round_lp2, which starts from the crash basis of
// rounding::build_lp2_program and throws on anything but Optimal) must
// reach the fractional optimum t* of the LP2 relaxation written out
// independently here, as the dense tableau oracle
// (tests/lp_tableau_oracle.hpp) solves it. The revised engine, started on
// the independent program from the oracle's first feasible basis, must
// reach Optimal at the same t* — never NumericalFailure, which it once hit
// on most 32+-chain instances when it priced off stale incremental reduced
// costs. This holds on chains, forests and hand-built edge cases alike.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "chains/decomposition.hpp"
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

// The default path's t* on `chains` is within 1e-9 (relative) of the
// oracle's objective on lp2_program, and the revised engine reaches it too
// from the oracle's first feasible basis.
void expect_matches_oracle(const core::Instance& inst,
                           const std::vector<std::vector<int>>& chains,
                           const std::string& at) {
  const rounding::Lp2Result res = rounding::solve_and_round_lp2(inst, chains);
  const lp::Problem program = lp2_program(inst, chains);
  const lp::oracle::TableauSolution ref = lp::oracle::solve_tableau(program);
  ASSERT_EQ(ref.status, lp::Status::Optimal) << at;
  const double tol = 1e-9 * std::fabs(ref.objective);
  EXPECT_NEAR(res.t_fractional, ref.objective, tol)
      << at << ": crash-started t* differs from the tableau oracle";
  ASSERT_EQ(ref.feasible_basis.size(), program.rows.size()) << at;
  const lp::Solution sol = lp::solve_simplex(program, ref.feasible_basis);
  ASSERT_EQ(sol.status, lp::Status::Optimal)
      << at << ": " << lp::to_string(sol.status);
  EXPECT_NEAR(sol.objective, ref.objective, tol)
      << at << ": revised t* from the oracle's feasible basis differs";
}

TEST(Lp2ChainsDifferential, ChainsMatchTheOracle) {
  for (const int nc : {16, 32, 64}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng rng(seed);
      const core::Instance inst = core::make_chains(
          nc, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
      expect_matches_oracle(inst, inst.dag().chains(),
                            "chains=" + std::to_string(nc) +
                                " seed=" + std::to_string(seed));
    }
  }
}

TEST(Lp2CrashBasis, ForestBlocksMatchTheOracle) {
  // dag_solve's forest class: the all-blocks LP2 behind the forest lower
  // bound and the per-block LP2 of every SUU-T heavy-path block, under the
  // volunteer-computing classes and U[0.3, 0.9].
  const core::MachineModel models[] = {
      core::MachineModel::classes(), core::MachineModel::uniform(0.3, 0.9)};
  for (int k = 0; k < 2; ++k) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng rng(seed);
      const core::Instance inst =
          core::make_out_forest(256, 8, 0.1, 3, models[k], rng);
      const chains::Decomposition dec = chains::decompose_forest(inst.dag());
      const std::string at = std::string(k == 0 ? "classes" : "uniform") +
                             " seed=" + std::to_string(seed);
      std::vector<std::vector<int>> all;
      for (std::size_t b = 0; b < dec.blocks.size(); ++b) {
        expect_matches_oracle(inst, dec.blocks[b],
                              at + " block=" + std::to_string(b));
        all.insert(all.end(), dec.blocks[b].begin(), dec.blocks[b].end());
      }
      expect_matches_oracle(inst, all, at + " all blocks");
    }
  }
}

TEST(Lp2CrashBasis, EdgeCasesMatchTheOracle) {
  // q is row-major by job (q[j * m + i]); q = 1 means incapable, q <= 0.5
  // means ell' = 1 (d_j = 1, so the d_j >= 1 surplus is a degenerate 0).
  struct Case {
    const char* what;
    int n, m;
    std::vector<double> q;
    std::vector<std::vector<int>> chains;
  };
  const Case cases[] = {
      {"job with one capable machine", 3, 2,
       {0.7, 1.0, /**/ 0.6, 0.8, /**/ 1.0, 0.9},
       {{0, 1, 2}}},
      {"machine capable of no listed job (no load row)", 3, 3,
       {0.7, 0.8, 1.0, /**/ 0.6, 0.9, 1.0, /**/ 1.0, 1.0, 0.5},
       {{0}, {1}}},
      {"ell' = 1 on the best machine (d_j = 1)", 4, 2,
       {0.5, 0.8, /**/ 0.7, 0.25, /**/ 0.3, 0.9, /**/ 0.6, 0.6},
       {{0, 1}, {2, 3}}},
      {"chains cover some of the jobs", 6, 3,
       {0.7, 0.8, 0.9, /**/ 0.6, 0.5, 0.9, /**/ 0.8, 0.8, 0.8,
        /**/ 0.9, 0.4, 0.7, /**/ 0.5, 0.5, 0.5, /**/ 0.3, 0.3, 0.3},
       {{1, 3}, {2}}},
      {"every ell' = 1: tied loads and chain lengths", 4, 2,
       {0.5, 0.5, /**/ 0.5, 0.5, /**/ 0.5, 0.5, /**/ 0.5, 0.5},
       {{0, 1}, {2, 3}}},
  };
  for (const Case& c : cases) {
    const core::Instance inst = core::Instance::independent(c.n, c.m, c.q);
    expect_matches_oracle(inst, c.chains, c.what);
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
