// Unit tests for the pricing module (lp/pricing.hpp) and the hardened
// SUU_LP_REFACTOR_INTERVAL parsing (lp/basis.hpp). The end-to-end pricing
// guarantees — identical verdicts and optima across every rule, matching
// the tableau oracle — live in test_lp_differential.cpp; this file pins the
// local contracts: the fixed rule per program class (crash-started LP1 and
// LP2 run Dantzig; cold programs, Lawler–Labetoulle's among them, run
// Devex), the Devex
// reference-weight recurrence, and a small all-rules optimum check with
// exact expected values.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "lp/basis.hpp"
#include "lp/pricing.hpp"
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

TEST(PricingRule_, Lp1DantzigPathAndDevexReachTheSameT) {
  // solve_lp1's simplex path is build_lp1_program's program solved from its
  // crash basis under Dantzig. Every rule's pivot path is deterministic, so
  // the path shows as solve_lp1 retracing that solve pivot for pivot; a
  // Devex solve of the same program and basis reaches the same t.
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
  SimplexOptions sopt;
  sopt.seed_basis = prog.crash_basis;
  sopt.pricing = PricingRule::Dantzig;
  const Solution dantzig = solve_simplex(prog.problem, sopt);
  sopt.pricing = PricingRule::Devex;
  const Solution devex = solve_simplex(prog.problem, sopt);
  ASSERT_EQ(dantzig.status, Status::Optimal);
  ASSERT_EQ(devex.status, Status::Optimal);
  EXPECT_EQ(lp1.simplex_iterations, dantzig.iterations);
  EXPECT_EQ(lp1.t, dantzig.x[static_cast<std::size_t>(prog.t_var)]);
  EXPECT_NEAR(devex.x[static_cast<std::size_t>(prog.t_var)], lp1.t,
              1e-9 * lp1.t);
}

TEST(PricingRule_, Lp2DantzigPathAndDevexReachTheSameT) {
  // solve_and_round_lp2 solves build_lp2_program's program from its crash
  // basis under Dantzig: it retraces that solve pivot for pivot, with no
  // phase 1, and a Devex solve from the same basis reaches the same t*.
  util::Rng rng(7);
  const core::Instance inst = core::make_chains(
      12, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
  const auto chains = inst.dag().chains();
  const rounding::Lp2Result lp2 = rounding::solve_and_round_lp2(inst, chains);

  const rounding::Lp2Program prog = rounding::build_lp2_program(inst, chains);
  SimplexOptions sopt;
  sopt.seed_basis = prog.crash_basis;
  sopt.pricing = PricingRule::Dantzig;
  const Solution dantzig = solve_simplex(prog.problem, sopt);
  sopt.pricing = PricingRule::Devex;
  const Solution devex = solve_simplex(prog.problem, sopt);
  ASSERT_EQ(dantzig.status, Status::Optimal);
  ASSERT_EQ(devex.status, Status::Optimal);
  EXPECT_EQ(lp2.simplex_phase1_iterations, 0);
  EXPECT_EQ(devex.phase1_iterations, 0);
  EXPECT_EQ(lp2.simplex_iterations, dantzig.iterations);
  EXPECT_EQ(lp2.t_fractional, dantzig.x[static_cast<std::size_t>(prog.t_var)]);
  EXPECT_NE(devex.iterations, dantzig.iterations)
      << "the rules must differ on this program, or the check is vacuous";
  EXPECT_NEAR(devex.x[static_cast<std::size_t>(prog.t_var)], lp2.t_fractional,
              1e-9 * lp2.t_fractional);
}

TEST(PricingRule_, ColdProgramsRunDevex) {
  // Programs without a crash basis — stoch::solve_rpmtn's Lawler–Labetoulle
  // LP among them — keep the SimplexOptions default, Devex: a cold
  // LP1-shaped program solved through lp::solve_simplex with default options
  // retraces Devex's path.
  util::Rng rng(7);
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<Row> loads(6);
  for (int j = 0; j < 40; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < 6; ++i) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.1 + rng.uniform01());
      loads[static_cast<std::size_t>(i)].terms.emplace_back(v, 1.0);
    }
    p.add_row(std::move(cover));
  }
  for (Row& load : loads) {
    load.terms.emplace_back(t, -1.0);
    load.rel = Rel::Le;
    p.add_row(std::move(load));
  }
  SimplexOptions sopt;
  const Solution s_default = solve_simplex(p, sopt);
  sopt.pricing = PricingRule::Devex;
  const Solution s_devex = solve_simplex(p, sopt);
  sopt.pricing = PricingRule::Dantzig;
  const Solution s_dantzig = solve_simplex(p, sopt);
  ASSERT_EQ(s_default.status, Status::Optimal);
  EXPECT_EQ(s_default.iterations, s_devex.iterations);
  EXPECT_EQ(s_default.objective, s_devex.objective);
  EXPECT_NE(s_devex.iterations, s_dantzig.iterations)
      << "the rules must differ on this program, or the check is vacuous";
}

TEST(ReferenceWeights, ResetActivationAndScore) {
  pricing::ReferenceWeights w;
  EXPECT_FALSE(w.active());
  w.reset(4);
  ASSERT_TRUE(w.active());
  for (int j = 0; j < 4; ++j) EXPECT_EQ(w[j], 1.0);
  // score = d^2 / w_j: at unit weights, ranking degenerates to |d| —
  // i.e. a fresh framework starts out agreeing with Dantzig.
  EXPECT_DOUBLE_EQ(w.score(0, -3.0), 9.0);
  EXPECT_DOUBLE_EQ(w.score(1, 2.0), 4.0);
  w.deactivate();
  EXPECT_FALSE(w.active());
}

TEST(ReferenceWeights, DevexUpdateIsMonotoneMax) {
  pricing::ReferenceWeights w;
  w.reset(3);
  // w_j <- max(w_j, r^2 * w_q): grows to 4, never shrinks back.
  w.note_devex(0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 4.0);
  w.note_devex(0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 4.0);
  // score divides by the grown weight, demoting the long column.
  EXPECT_DOUBLE_EQ(w.score(0, -2.0), 1.0);
  EXPECT_FALSE(w.needs_reset());
}

TEST(ReferenceWeights, LeavingWeightAndResetThreshold) {
  pricing::ReferenceWeights w;
  w.reset(2);
  // Leaving variable gets max(w_q / piv^2, 1).
  w.set_leaving(0, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(w[0], 16.0);
  w.set_leaving(1, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
  EXPECT_FALSE(w.needs_reset());
  // Crossing kWeightResetThreshold latches needs_reset until reset().
  w.note_devex(0, 1e5, 2.0);
  EXPECT_TRUE(w.needs_reset());
  w.reset(2);
  EXPECT_FALSE(w.needs_reset());
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(Pricing, AllRulesReachTheSameOptimumAsTheOracle) {
  // Tiny LP1-shaped program with a hand-checkable optimum: two jobs, two
  // machines, min t with unit covers and load rows — t* = 1 (one job per
  // machine at x = 1).
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

  for (const PricingRule r : {PricingRule::Dantzig, PricingRule::Devex}) {
    SimplexOptions opt;
    opt.pricing = r;
    const Solution s = solve_simplex(p, opt);
    ASSERT_EQ(s.status, Status::Optimal) << to_string(r);
    EXPECT_NEAR(s.objective, 1.0, 1e-9) << to_string(r);
    const Solution ref = oracle::solve_tableau(p, opt);
    ASSERT_EQ(ref.status, Status::Optimal) << "oracle " << to_string(r);
    EXPECT_NEAR(ref.objective, 1.0, 1e-9) << "oracle " << to_string(r);
  }
}

}  // namespace
}  // namespace suu::lp
