#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "lp/basis.hpp"

#include "core/generators.hpp"
#include "lp_tableau_oracle.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
#include "util/rng.hpp"

namespace suu::lp {
namespace {

Row row(std::vector<std::pair<int, double>> terms, Rel rel, double rhs) {
  Row r;
  r.terms = std::move(terms);
  r.rel = rel;
  r.rhs = rhs;
  return r;
}

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => opt 36 at (2, 6).
  Problem p;
  const int x = p.add_var(-3.0);  // minimize the negation
  const int y = p.add_var(-5.0);
  p.add_row(row({{x, 1}}, Rel::Le, 4));
  p.add_row(row({{y, 2}}, Rel::Le, 12));
  p.add_row(row({{x, 3}, {y, 2}}, Rel::Le, 18));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 6.0, 1e-8);
}

TEST(Simplex, GeConstraintsNeedPhase1) {
  // min x + y s.t. x + y >= 2, x >= 0.5  => opt 2.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_row(row({{x, 1}, {y, 1}}, Rel::Ge, 2));
  p.add_row(row({{x, 1}}, Rel::Ge, 0.5));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_GE(s.x[x], 0.5 - 1e-9);
}

TEST(Simplex, EqualityRows) {
  // min 2x + 3y s.t. x + y = 4, x - y = 0 => x = y = 2, obj 10.
  Problem p;
  const int x = p.add_var(2.0);
  const int y = p.add_var(3.0);
  p.add_row(row({{x, 1}, {y, 1}}, Rel::Eq, 4));
  p.add_row(row({{x, 1}, {y, -1}}, Rel::Eq, 0));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
  EXPECT_NEAR(s.objective, 10.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  Problem p;
  const int x = p.add_var(1.0);
  p.add_row(row({{x, 1}}, Rel::Le, 1));
  p.add_row(row({{x, 1}}, Rel::Ge, 2));
  EXPECT_EQ(solve_simplex(p).status, Status::Infeasible);
}

TEST(Simplex, InfeasibleByNonnegativity) {
  Problem p;
  const int x = p.add_var(0.0);
  p.add_row(row({{x, 1}}, Rel::Le, -3));  // x <= -3 impossible for x >= 0
  EXPECT_EQ(solve_simplex(p).status, Status::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  Problem p;
  const int x = p.add_var(-1.0);  // maximize x
  const int y = p.add_var(0.0);
  p.add_row(row({{x, 1}, {y, -1}}, Rel::Le, 1));  // x <= 1 + y, y free to grow
  EXPECT_EQ(solve_simplex(p).status, Status::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -2  (i.e. x >= 2).
  Problem p;
  const int x = p.add_var(1.0);
  p.add_row(row({{x, -1}}, Rel::Le, -2));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: several redundant constraints through the origin.
  Problem p;
  const int x = p.add_var(-1.0);
  const int y = p.add_var(-1.0);
  p.add_row(row({{x, 1}, {y, 1}}, Rel::Le, 1));
  p.add_row(row({{x, 2}, {y, 2}}, Rel::Le, 2));
  p.add_row(row({{x, 1}}, Rel::Le, 1));
  p.add_row(row({{y, 1}}, Rel::Le, 1));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-8);
}

TEST(Simplex, BealeCycleTerminates) {
  // Beale's classic example: Dantzig pricing with naive tie-breaking
  // cycles forever through degenerate bases at the origin. The Bland
  // stall guard must break the cycle and reach the optimum -1/20 at
  // x = (1/25, 0, 1, 0), as the oracle does.
  Problem p;
  const int x1 = p.add_var(-0.75);
  const int x2 = p.add_var(150.0);
  const int x3 = p.add_var(-0.02);
  const int x4 = p.add_var(6.0);
  p.add_row(row({{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, Rel::Le, 0));
  p.add_row(row({{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, Rel::Le, 0));
  p.add_row(row({{x3, 1}}, Rel::Le, 1));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
  EXPECT_NEAR(s.x[x1], 0.04, 1e-8);
  EXPECT_NEAR(s.x[x3], 1.0, 1e-8);
  EXPECT_NEAR(oracle::solve_tableau(p).objective, -0.05, 1e-8);
}

TEST(Simplex, TinyPivotsRejected) {
  // The epsilon coefficient is below kPivotTol, so the ratio test must not
  // pivot on it; the row is effectively x2 <= 1 for any solver that would
  // divide by it, but treating the entry as structural zero leaves the LP
  // unbounded rather than silently corrupting the basis.
  Problem p;
  const int x = p.add_var(-1.0);  // maximize x
  p.add_row(row({{x, 1e-13}}, Rel::Le, 1));
  const Solution s = solve_simplex(p);
  EXPECT_EQ(s.status, Status::Unbounded);
}

TEST(Simplex, RedundantEqualityRows) {
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_row(row({{x, 1}, {y, 1}}, Rel::Eq, 2));
  p.add_row(row({{x, 2}, {y, 2}}, Rel::Eq, 4));  // same plane
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
}

TEST(Simplex, ZeroVariableProblem) {
  Problem p;
  const Solution s = solve_simplex(p);
  EXPECT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, 0.0);
}

TEST(Simplex, ZeroVariableInfeasible) {
  Problem p;
  Row r;
  r.rel = Rel::Ge;
  r.rhs = 1.0;
  p.rows.push_back(r);  // 0 >= 1
  EXPECT_EQ(solve_simplex(p).status, Status::Infeasible);
}

TEST(Simplex, DuplicateTermsAreSummed) {
  // x + x <= 4  =>  x <= 2 effectively; maximize x.
  Problem p;
  const int x = p.add_var(-1.0);
  p.add_row(row({{x, 1}, {x, 1}}, Rel::Le, 4));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
}

// ---- Golden objectives: recorded from the dense-tableau solver that is
// now the differential oracle. LP1 and LP2 run from their crash bases;
// both must land on the recorded optimum.

TEST(SimplexGolden, Lp1InstanceObjective) {
  util::Rng rng(42);
  const core::Instance inst = core::make_independent(
      12, 4, core::MachineModel::uniform(0.3, 0.95), rng);
  std::vector<int> jobs;
  for (int j = 0; j < inst.num_jobs(); ++j) jobs.push_back(j);
  rounding::Lp1Options opt;
  opt.simplex_size_limit = std::numeric_limits<int>::max();
  const rounding::Lp1Fractional frac =
      rounding::solve_lp1(inst, jobs, 0.5, opt);
  EXPECT_NEAR(frac.t, 3.186421848442467, 1e-9);
  EXPECT_GT(frac.simplex_iterations, 0);
  EXPECT_EQ(frac.simplex_phase1_iterations, 0) << "crash basis not installed";
}

TEST(SimplexGolden, Lp2InstanceObjective) {
  util::Rng rng(99);
  const core::Instance inst = core::make_chains(
      5, 2, 4, 3, core::MachineModel::uniform(0.3, 0.9), rng);
  const rounding::Lp2Result res =
      rounding::solve_and_round_lp2(inst, inst.dag().chains());
  EXPECT_NEAR(res.t_fractional, 5.296096594137738, 1e-9);
  EXPECT_GT(res.simplex_iterations, res.simplex_phase1_iterations);
}

// (The Beale golden lives above: Simplex.BealeCycleTerminates pins the
// optimum -0.05 at x = (1/25, 0, 1, 0).)

// ---- A small LP whose rhs can be perturbed (seed-basis tests).

Problem perturbable_lp(double rhs1) {
  // min x + 2y s.t. x + y >= rhs1, x + 3y >= 4, x + 4y <= 12.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(2.0);
  p.add_row(row({{x, 1}, {y, 1}}, Rel::Ge, rhs1));
  p.add_row(row({{x, 1}, {y, 3}}, Rel::Ge, 4));
  p.add_row(row({{x, 1}, {y, 4}}, Rel::Le, 12));
  return p;
}

TEST(Simplex, GeAndEqRowsNeedPhase1) {
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_row(row({{x, 1}, {y, 1}}, Rel::Ge, 2));
  p.add_row(row({{x, 1}, {y, -1}}, Rel::Eq, 1));
  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_GT(s.phase1_iterations, 0);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_NEAR(s.x[x], 1.5, 1e-8);
  EXPECT_NEAR(s.x[y], 0.5, 1e-8);
}

// ---- The tableau oracle (tests/lp_tableau_oracle.hpp) on the small cases:
// the differential suite sweeps this at scale; these pin the basics.

TEST(SimplexVsOracle, VerdictsAndObjectivesMatch) {
  std::vector<Problem> cases;
  {
    Problem p;  // infeasible
    const int x = p.add_var(1.0);
    p.add_row(row({{x, 1}}, Rel::Le, 1));
    p.add_row(row({{x, 1}}, Rel::Ge, 2));
    cases.push_back(std::move(p));
  }
  {
    Problem p;  // unbounded
    const int x = p.add_var(-1.0);
    const int y = p.add_var(0.0);
    p.add_row(row({{x, 1}, {y, -1}}, Rel::Le, 1));
    cases.push_back(std::move(p));
  }
  {
    Problem p;  // textbook maximization
    const int x = p.add_var(-3.0);
    const int y = p.add_var(-5.0);
    p.add_row(row({{x, 1}}, Rel::Le, 4));
    p.add_row(row({{y, 2}}, Rel::Le, 12));
    p.add_row(row({{x, 3}, {y, 2}}, Rel::Le, 18));
    cases.push_back(std::move(p));
  }
  cases.push_back(perturbable_lp(3.0));
  cases.push_back(perturbable_lp(11.0));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Solution ref = oracle::solve_tableau(cases[c]);
    const Solution s = solve_simplex(cases[c]);
    ASSERT_EQ(s.status, ref.status) << "case " << c;
    if (ref.status == Status::Optimal) {
      EXPECT_NEAR(s.objective, ref.objective, 1e-9) << "case " << c;
    }
  }
}

TEST(SimplexVsOracle, NumericalFailureHasItsOwnSpelling) {
  // The typed verdict LP1/LP2 callers surface as an error.
  EXPECT_EQ(to_string(Status::NumericalFailure), "numerical-failure");
  for (const Status st : {Status::Optimal, Status::Infeasible,
                          Status::Unbounded, Status::IterLimit}) {
    EXPECT_NE(to_string(st), to_string(Status::NumericalFailure));
  }
}

// ---- Seed basis (SimplexOptions::seed_basis; the LP1 crash basis is its
// one production caller).

TEST(SimplexSeed, RepeatSolveSkipsPhase1) {
  const Problem p = perturbable_lp(3.0);
  const Solution cold = solve_simplex(p);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());
  EXPECT_GT(cold.phase1_iterations, 0);
  SimplexOptions opt;
  opt.seed_basis = cold.basis;
  const Solution hot = solve_simplex(p, opt);
  ASSERT_EQ(hot.status, Status::Optimal);
  EXPECT_EQ(hot.phase1_iterations, 0);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-9);
  for (std::size_t i = 0; i < cold.x.size(); ++i) {
    EXPECT_NEAR(hot.x[i], cold.x[i], 1e-9);
  }
}

TEST(SimplexSeed, OracleBasisIsAValidSeed) {
  // The oracle numbers columns through the same standard form, so a
  // tableau-recorded basis is a valid seed.
  const Problem p = perturbable_lp(3.0);
  const Solution cold = oracle::solve_tableau(p);
  ASSERT_EQ(cold.status, Status::Optimal);
  SimplexOptions opt;
  opt.seed_basis = cold.basis;
  const Solution hot = solve_simplex(p, opt);
  ASSERT_EQ(hot.status, Status::Optimal);
  EXPECT_EQ(hot.phase1_iterations, 0);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-9);
}

TEST(SimplexSeed, MismatchedSeedFallsBackCold) {
  const Problem p = perturbable_lp(3.0);
  SimplexOptions opt;
  opt.seed_basis = {0, 1, 2, 3, 4, 5, 6};  // wrong dimensions for this program
  const Solution s = solve_simplex(p, opt);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_GT(s.phase1_iterations, 0) << "a rejected seed must run phase 1";
  EXPECT_NEAR(s.objective, solve_simplex(p).objective, 1e-9);
  // An artificial column is never an acceptable seed column either.
  const StandardForm sf = build_standard_form(p);
  ASSERT_LT(sf.art_begin, sf.n_total);
  opt.seed_basis = sf.init_basis;
  const Solution art = solve_simplex(p, opt);
  ASSERT_EQ(art.status, Status::Optimal);
  EXPECT_GT(art.phase1_iterations, 0);
  EXPECT_NEAR(art.objective, s.objective, 1e-9);
}

TEST(SimplexSeed, InfeasibleSeedVertexRejected) {
  // The optimal basis at rhs1 = 3 is primal infeasible once rhs1 jumps to
  // 11, so the seed must be rejected, phase 1 must run, and the optimum
  // must still match a cold solve.
  const Solution seed = solve_simplex(perturbable_lp(3.0));
  ASSERT_EQ(seed.status, Status::Optimal);
  const Problem jumped = perturbable_lp(11.0);
  SimplexOptions opt;
  opt.seed_basis = seed.basis;
  const Solution hot = solve_simplex(jumped, opt);
  const Solution cold = solve_simplex(jumped);
  ASSERT_EQ(hot.status, Status::Optimal);
  ASSERT_EQ(cold.status, Status::Optimal);
  // Accepting the seed would start phase 2 from an infeasible vertex, which
  // fails verification and surfaces as NumericalFailure.
  EXPECT_GT(hot.phase1_iterations, 0) << "infeasible seed was accepted";
  EXPECT_NEAR(hot.objective, cold.objective, 1e-9);
}

TEST(StandardFormBuild, MatchesTableauNormalization) {
  // min x s.t. -x <= -2 normalizes to x >= 2 with a surplus + artificial.
  Problem p;
  const int x = p.add_var(1.0);
  p.add_row(row({{x, -1}}, Rel::Le, -2));
  const StandardForm sf = build_standard_form(p);
  EXPECT_EQ(sf.m, 1);
  EXPECT_EQ(sf.n_orig, 1);
  EXPECT_EQ(sf.n_total, 3);  // x, surplus, artificial
  EXPECT_EQ(sf.art_begin, 2);
  EXPECT_EQ(sf.rhs[0], 2.0);
  EXPECT_EQ(sf.init_basis[0], 2);
  ASSERT_EQ(sf.col_nnz(0), 1);
  EXPECT_EQ(sf.col_val[static_cast<std::size_t>(sf.col_ptr[0])], 1.0);
}

TEST(BasisFactorizationTest, FtranBtranRoundTrip) {
  // Factorize a small nontrivial basis and check B^{-1}(B e_k) == e_k and
  // the BTRAN transpose identity.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(2.0);
  p.add_row(row({{x, 2}, {y, 1}}, Rel::Le, 4));
  p.add_row(row({{x, 1}, {y, 3}}, Rel::Le, 6));
  const StandardForm sf = build_standard_form(p);
  BasisFactorization fact(sf, kPivotTol);
  ASSERT_TRUE(fact.refactorize({x, y}));
  // b = (4, 6): solving 2x + y = 4, x + 3y = 6 gives x = 6/5, y = 8/5.
  std::vector<double> v = sf.rhs;
  fact.ftran(v);
  const int rx = fact.row_to_col()[0] == x ? 0 : 1;
  EXPECT_NEAR(v[static_cast<std::size_t>(rx)], 1.2, 1e-12);
  EXPECT_NEAR(v[static_cast<std::size_t>(1 - rx)], 1.6, 1e-12);
  // BTRAN with c_B = (1, 2) in row order must reproduce y^T B = c_B^T.
  std::vector<double> yv(2);
  yv[static_cast<std::size_t>(rx)] = 1.0;
  yv[static_cast<std::size_t>(1 - rx)] = 2.0;
  fact.btran(yv);
  EXPECT_NEAR(2 * yv[0] + 1 * yv[1], 1.0, 1e-12);  // column x
  EXPECT_NEAR(1 * yv[0] + 3 * yv[1], 2.0, 1e-12);  // column y
}

TEST(BasisFactorizationTest, SingularBasisRejected) {
  Problem p;
  const int x = p.add_var(1.0);
  p.add_var(1.0);
  p.add_row(row({{x, 1}}, Rel::Le, 1));
  p.add_row(row({{x, 2}}, Rel::Le, 2));
  const StandardForm sf = build_standard_form(p);
  BasisFactorization fact(sf, kPivotTol);
  // Columns {x, x-duplicate-direction}: rows are multiples -> singular once
  // x claims a row and the second column has no independent pivot. Use the
  // slack of row 0 twice via {x, x}? Not allowed; instead {x, slack0} is
  // fine but {slack0, slack0} is a caller bug. The singular case here:
  // basis {x, y} where y has no entries at all.
  EXPECT_FALSE(fact.refactorize({x, 1}));  // y's column is empty
}

TEST(MaxViolation, DetectsEachRelation) {
  Problem p;
  const int x = p.add_var(0.0);
  p.add_row(row({{x, 1}}, Rel::Le, 1));
  p.add_row(row({{x, 1}}, Rel::Ge, 0.5));
  p.add_row(row({{x, 1}}, Rel::Eq, 0.75));
  EXPECT_NEAR(max_violation(p, {0.75}), 0.0, 1e-12);
  EXPECT_NEAR(max_violation(p, {2.0}), 1.25, 1e-12);
  EXPECT_NEAR(max_violation(p, {0.0}), 0.75, 1e-12);
}

// ---- Property sweep: random feasible-by-construction covering LPs, checked
// against brute force over a grid of feasible candidates.

class SimplexRandomLp1 : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLp1, OptimalIsFeasibleAndNoGridPointBeatsIt) {
  util::Rng rng(1000 + GetParam());
  const int n_jobs = 1 + static_cast<int>(rng.uniform_below(4));
  const int n_machines = 1 + static_cast<int>(rng.uniform_below(3));

  // LP1-shaped: min t, sum_i a_ij x_ij >= 1 per job, sum_j x_ij <= t.
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<std::vector<int>> var(n_jobs);
  std::vector<std::vector<double>> a(n_jobs);
  std::vector<Row> loads(n_machines);
  for (int j = 0; j < n_jobs; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < n_machines; ++i) {
      const double aij = 0.1 + rng.uniform01();
      const int v = p.add_var(0.0);
      var[j].push_back(v);
      a[j].push_back(aij);
      cover.terms.emplace_back(v, aij);
      loads[i].terms.emplace_back(v, 1.0);
    }
    p.add_row(std::move(cover));
  }
  for (int i = 0; i < n_machines; ++i) {
    loads[i].terms.emplace_back(t, -1.0);
    loads[i].rel = Rel::Le;
    loads[i].rhs = 0.0;
    p.add_row(std::move(loads[i]));
  }

  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_LE(max_violation(p, s.x), 1e-6);

  // No random feasible candidate may do better.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(p.num_vars), 0.0);
    std::vector<double> load(n_machines, 0.0);
    for (int j = 0; j < n_jobs; ++j) {
      // Cover job j by splitting demand across machines at random.
      double need = 1.0;
      while (need > 1e-12) {
        const int i = static_cast<int>(rng.uniform_below(n_machines));
        const double frac = rng.uniform01();
        const double mass = std::min(need, frac);
        const double dx = mass / a[j][static_cast<std::size_t>(i)];
        x[static_cast<std::size_t>(var[j][static_cast<std::size_t>(i)])] += dx;
        load[i] += dx;
        need -= mass;
      }
    }
    double tmax = 0;
    for (const double l : load) tmax = std::max(tmax, l);
    EXPECT_GE(tmax, s.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomLp1, ::testing::Range(0, 12));

}  // namespace
}  // namespace suu::lp
