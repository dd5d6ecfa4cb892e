#include "lp/fw_cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/generators.hpp"
#include "lp/problem.hpp"
#include "lp_tableau_oracle.hpp"
#include "obs/metrics.hpp"
#include "rounding/lp1.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace suu::lp {
namespace {

// The LP optimum of `sys`, from the dense tableau oracle.
double exact_opt(const CoverSystem& sys) {
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<Row> loads(sys.n_machines);
  for (int j = 0; j < sys.num_jobs(); ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = sys.demand[static_cast<std::size_t>(j)];
    for (int k = sys.ptr[static_cast<std::size_t>(j)];
         k < sys.ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, sys.coef[static_cast<std::size_t>(k)]);
      loads[sys.machine[static_cast<std::size_t>(k)]].terms.emplace_back(v,
                                                                         1.0);
    }
    p.add_row(std::move(cover));
  }
  for (int i = 0; i < sys.n_machines; ++i) {
    if (loads[i].terms.empty()) continue;
    loads[i].terms.emplace_back(t, -1.0);
    loads[i].rel = Rel::Le;
    loads[i].rhs = 0.0;
    p.add_row(std::move(loads[i]));
  }
  const Solution s = oracle::solve_tableau(p);
  SUU_CHECK(s.status == Status::Optimal);
  return s.objective;
}

CoverSystem random_system(util::Rng& rng, int n_jobs, int n_machines) {
  CoverSystem sys;
  sys.n_machines = n_machines;
  for (int j = 0; j < n_jobs; ++j) {
    sys.add_job(0.5 + rng.uniform01());
    for (int i = 0; i < n_machines; ++i) {
      if (rng.bernoulli(0.7)) sys.add(i, 0.05 + rng.uniform01());
    }
    if (sys.ptr[static_cast<std::size_t>(j) + 1] ==
        sys.ptr[static_cast<std::size_t>(j)]) {
      sys.add(0, 0.5);
    }
  }
  return sys;
}

// Every x entry is finite and nonnegative and each job's coverage meets its
// demand to relative tolerance `tol`.
void expect_demands_met(const CoverSystem& sys, const FwSolution& s,
                        double tol) {
  ASSERT_EQ(s.x.size(), sys.machine.size());
  for (int j = 0; j < sys.num_jobs(); ++j) {
    double got = 0;
    for (int k = sys.ptr[static_cast<std::size_t>(j)];
         k < sys.ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      const double x = s.x[static_cast<std::size_t>(k)];
      EXPECT_TRUE(std::isfinite(x)) << "job " << j;
      EXPECT_GE(x, -1e-12);
      got += x * sys.coef[static_cast<std::size_t>(k)];
    }
    const double d = sys.demand[static_cast<std::size_t>(j)];
    EXPECT_NEAR(got, d, tol * (1 + d)) << "job " << j;
  }
}

TEST(FwCover, SingleJobSingleMachineClosedForm) {
  CoverSystem sys;
  sys.n_machines = 1;
  sys.add_job(1.0);
  sys.add(0, 0.25);
  const FwSolution s = solve_fw_cover(sys);
  EXPECT_NEAR(s.t, 4.0, 1e-6);  // must put 4 units on the only machine
  EXPECT_NEAR(s.lower_bound, 4.0, 0.2);
}

TEST(FwCover, DemandAlwaysMetExactly) {
  util::Rng rng(5);
  const CoverSystem sys = random_system(rng, 20, 6);
  expect_demands_met(sys, solve_fw_cover(sys), 1e-6);
}

TEST(FwCover, LowerBoundIsValid) {
  util::Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const CoverSystem sys = random_system(rng, 12, 4);
    const FwSolution s = solve_fw_cover(sys);
    const double opt = exact_opt(sys);
    EXPECT_LE(s.lower_bound, opt + 1e-6) << "LB must not exceed the optimum";
    EXPECT_GE(s.t, opt - 1e-6) << "achieved value cannot beat the optimum";
  }
}

TEST(FwCover, IdenticalMachinesBalance) {
  // 8 jobs, 4 identical machines, coeff 1, demand 1: optimum 2.
  CoverSystem sys;
  sys.n_machines = 4;
  for (int j = 0; j < 8; ++j) {
    sys.add_job(1.0);
    for (int i = 0; i < 4; ++i) sys.add(i, 1.0);
  }
  const FwSolution s = solve_fw_cover(sys);
  EXPECT_NEAR(s.t, 2.0, 0.15);
}

TEST(FwCover, FullLineSearchStepLandsOnTheVertex) {
  // Job 0 runs on either machine (tie: it starts on machine 0), job 1 only
  // on machine 0, so the start loads are (2, 0). The oracle moves job 0 to
  // machine 1, whose loads (1, 1) minimize the softmax along the whole
  // segment: phi'(1) == 0, so the line search takes sigma = 1 and the
  // iterate must be exactly that vertex (no division by the zero scale).
  CoverSystem sys;
  sys.n_machines = 2;
  sys.add_job(1.0);
  sys.add(0, 1.0);
  sys.add(1, 1.0);
  sys.add_job(1.0);
  sys.add(0, 1.0);
  const FwSolution s = solve_fw_cover(sys);
  EXPECT_EQ(s.x[0], 0.0) << "only a full step zeroes the start entry";
  EXPECT_EQ(s.x[1], 1.0);
  EXPECT_EQ(s.x[2], 1.0);
  EXPECT_EQ(s.t, 1.0);
  EXPECT_EQ(s.lower_bound, 1.0);
  EXPECT_EQ(s.iterations, 2);  // the step, then the zero-gap stop
  expect_demands_met(sys, s, 0.0);
}

TEST(FwCover, EmptySystem) {
  CoverSystem sys;
  sys.n_machines = 2;
  const FwSolution s = solve_fw_cover(sys);
  EXPECT_EQ(s.t, 0.0);
  EXPECT_TRUE(s.x.empty());
}

TEST(FwCover, JobWithoutMachineThrows) {
  CoverSystem sys;
  sys.n_machines = 1;
  sys.add_job(1.0);
  EXPECT_THROW(solve_fw_cover(sys), util::CheckError);
}

TEST(FwCover, NonPositiveDemandOrCoefficientThrows) {
  CoverSystem zero_demand;
  zero_demand.n_machines = 1;
  zero_demand.add_job(0.0);
  zero_demand.add(0, 1.0);
  EXPECT_THROW(solve_fw_cover(zero_demand), util::CheckError);
  CoverSystem zero_coef;
  zero_coef.n_machines = 1;
  zero_coef.add_job(1.0);
  zero_coef.add(0, 0.0);
  EXPECT_THROW(solve_fw_cover(zero_coef), util::CheckError);
}

// LP1(J, 1/2) of make_independent(n, m, classes()) on Frank–Wolfe: the
// indep_solve classes above the simplex cutover.
rounding::Lp1Fractional fw_lp1(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Instance inst =
      core::make_independent(n, m, core::MachineModel::classes(), rng);
  std::vector<int> jobs(static_cast<std::size_t>(n));
  std::iota(jobs.begin(), jobs.end(), 0);
  rounding::Lp1Options opt;
  opt.simplex_size_limit = 0;
  return rounding::solve_lp1(inst, jobs, 0.5, opt);
}

TEST(FwCover, LineSearchConvergesOnIndependentClasses) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    // m = 8: the 2% certified gap within 150 iterations (about 400 with
    // the 2/(k+3) step).
    const rounding::Lp1Fractional m8 = fw_lp1(1024, 8, seed);
    EXPECT_LE(m8.fw_iterations, 150) << "1024x8 seed " << seed;
    EXPECT_LE(m8.t - m8.lower_bound, 0.02 * m8.t) << "1024x8 seed " << seed;
    // m = 32 still runs to the iteration cap, but ends within 8% of its
    // certificate (10-17% with the 2/(k+3) step).
    const rounding::Lp1Fractional m32 = fw_lp1(1024, 32, seed);
    EXPECT_GT(m32.fw_iterations, 0);
    EXPECT_LE(m32.t - m32.lower_bound, 0.08 * m32.t)
        << "1024x32 seed " << seed;
  }
}

TEST(FwCover, CountsSolvesAndIterations) {
  if (!obs::compiled_in) GTEST_SKIP() << "built with SUU_OBS=OFF";
  obs::Registry& reg = obs::Registry::global();
  const obs::Counter& solves = reg.counter("suu_lp_fw_solves_total");
  const obs::Counter& iters = reg.counter("suu_lp_fw_iterations_total");
  const std::uint64_t solves_before = solves.value();
  const std::uint64_t iters_before = iters.value();
  util::Rng rng(7);
  const FwSolution s = solve_fw_cover(random_system(rng, 10, 3));
  EXPECT_EQ(solves.value() - solves_before, 1U);
  EXPECT_EQ(iters.value() - iters_before,
            static_cast<std::uint64_t>(s.iterations));
  // The simplex path leaves fw_iterations at 0 and the counters alone.
  util::Rng inst_rng(1);
  const core::Instance inst =
      core::make_independent(16, 4, core::MachineModel::classes(), inst_rng);
  std::vector<int> jobs(16);
  std::iota(jobs.begin(), jobs.end(), 0);
  EXPECT_EQ(rounding::solve_lp1(inst, jobs, 0.5).fw_iterations, 0);
  EXPECT_EQ(solves.value() - solves_before, 1U);
}

class FwVsSimplex : public ::testing::TestWithParam<int> {};

TEST_P(FwVsSimplex, WithinConstantFactorOfOptimum) {
  util::Rng rng(100 + GetParam());
  const int n_jobs = 2 + static_cast<int>(rng.uniform_below(20));
  const int n_machines = 1 + static_cast<int>(rng.uniform_below(6));
  const CoverSystem sys = random_system(rng, n_jobs, n_machines);
  const FwSolution s = solve_fw_cover(sys);
  const double opt = exact_opt(sys);
  ASSERT_GT(opt, 0);
  // The solver stops at a 2% certified gap or at its iteration cap, where
  // the softmax smoothing leaves a few percent: the 15 cases reach at most
  // t/opt = 1.033 and at least lower_bound/opt = 0.996.
  EXPECT_LE(s.t / opt, 1.05) << "FW too far from optimum";
  EXPECT_GE(s.lower_bound / opt, 0.98) << "certificate too weak";
}

INSTANTIATE_TEST_SUITE_P(Sweep, FwVsSimplex, ::testing::Range(0, 15));

}  // namespace
}  // namespace suu::lp
