// Unit tests for the crash-started LP paths and the hardened
// SUU_LP_REFACTOR_INTERVAL parsing (lp/basis.hpp). The end-to-end
// guarantees — identical verdicts and optima from every starting basis,
// matching the tableau oracle — live in test_lp_differential.cpp, and the
// Lawler–Labetoulle crash basis is pinned in test_stoch.cpp; this file pins
// the local contracts: solve_lp1 and solve_and_round_lp2 are their
// builders' programs solved from the builders' crash bases, and a small
// program with an exact expected optimum.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "lp/basis.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp_tableau_oracle.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
#include "util/rng.hpp"

namespace suu::lp {
namespace {

TEST(RefactorInterval, AcceptsBarePositiveDecimals) {
  EXPECT_EQ(parse_refactor_interval("1"), 1);
  EXPECT_EQ(parse_refactor_interval("64"), 64);
  EXPECT_EQ(parse_refactor_interval("100000"), 100000);
  EXPECT_EQ(parse_refactor_interval("007"), 7);  // leading zeros are fine
}

TEST(RefactorInterval, RejectsEverythingElse) {
  // Each of these must fall back to the default, never clamp: a
  // misconfigured env var silently running with interval 1 (the old
  // behaviour for "0" and negatives) tanks the simplex.
  const char* bad[] = {"",       "0",     "-5",        "abc",
                       "64abc",  "6 4",   " 64",       "64 ",
                       "1e3",    "+64",   "0x40",      "100001",
                       "999999999999999999999"};
  for (const char* s : bad) {
    EXPECT_EQ(parse_refactor_interval(s), kDefaultRefactorInterval)
        << "input \"" << s << '"';
  }
  EXPECT_EQ(parse_refactor_interval(nullptr), kDefaultRefactorInterval);
}

TEST(CrashStart, Lp1RetracesTheSeededSolve) {
  // solve_lp1's simplex path is build_lp1_program's program solved from its
  // crash basis. The pivot path is deterministic, so the path shows as
  // solve_lp1 retracing that solve pivot for pivot.
  util::Rng rng(7);
  const core::Instance inst = core::make_independent(
      48, 6, core::MachineModel::uniform(0.3, 0.95), rng);
  std::vector<int> jobs;
  for (int j = 0; j < inst.num_jobs(); ++j) jobs.push_back(j);
  rounding::Lp1Options opt;
  opt.simplex_size_limit = std::numeric_limits<int>::max();
  const rounding::Lp1Fractional lp1 = rounding::solve_lp1(inst, jobs, 0.5, opt);

  const rounding::Lp1Program prog =
      rounding::build_lp1_program(inst, jobs, 0.5);
  const Solution seeded = solve_simplex(prog.problem, prog.crash_basis);
  ASSERT_EQ(seeded.status, Status::Optimal);
  EXPECT_EQ(lp1.simplex_iterations, seeded.iterations);
  EXPECT_EQ(lp1.t, seeded.x[static_cast<std::size_t>(prog.t_var)]);
}

TEST(CrashStart, Lp2RetracesTheSeededSolve) {
  // solve_and_round_lp2 solves build_lp2_program's program from its crash
  // basis: it retraces that solve pivot for pivot.
  util::Rng rng(7);
  const core::Instance inst = core::make_chains(
      12, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
  const auto chains = inst.dag().chains();
  const rounding::Lp2Result lp2 = rounding::solve_and_round_lp2(inst, chains);

  const rounding::Lp2Program prog = rounding::build_lp2_program(inst, chains);
  const Solution seeded = solve_simplex(prog.problem, prog.crash_basis);
  ASSERT_EQ(seeded.status, Status::Optimal);
  EXPECT_EQ(lp2.simplex_iterations, seeded.iterations);
  EXPECT_EQ(lp2.t_fractional, seeded.x[static_cast<std::size_t>(prog.t_var)]);
}

TEST(CrashStart, TinyLp1ReachesTheOracleOptimum) {
  // Tiny LP1-shaped program with a hand-checkable optimum: two jobs, two
  // machines, min t with unit covers and load rows — t* = 1 (one job per
  // machine at x = 1). The engine, started from the LP1 crash shape (both
  // jobs on machine 0: t = 2 there, machine 1's slack at 2), and the
  // tableau oracle both reach it.
  Problem p;
  const int t = p.add_var(1.0);
  const int x00 = p.add_var(0.0);
  const int x10 = p.add_var(0.0);
  const int x01 = p.add_var(0.0);
  const int x11 = p.add_var(0.0);
  Row c0;
  c0.rel = Rel::Ge;
  c0.rhs = 1.0;
  c0.terms = {{x00, 1.0}, {x10, 1.0}};
  p.add_row(std::move(c0));
  Row c1;
  c1.rel = Rel::Ge;
  c1.rhs = 1.0;
  c1.terms = {{x01, 1.0}, {x11, 1.0}};
  p.add_row(std::move(c1));
  Row l0;
  l0.rel = Rel::Le;
  l0.rhs = 0.0;
  l0.terms = {{x00, 1.0}, {x01, 1.0}, {t, -1.0}};
  p.add_row(std::move(l0));
  Row l1;
  l1.rel = Rel::Le;
  l1.rhs = 0.0;
  l1.terms = {{x10, 1.0}, {x11, 1.0}, {t, -1.0}};
  p.add_row(std::move(l1));

  const Solution s = solve_simplex(p, {x00, x01, t, p.num_vars + 3});
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_GT(s.iterations, 0);  // pivots only; the final pricing pass is not one
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
  const Solution ref = oracle::solve_tableau(p);
  ASSERT_EQ(ref.status, Status::Optimal);
  EXPECT_NEAR(ref.objective, 1.0, 1e-9);
}

}  // namespace
}  // namespace suu::lp
