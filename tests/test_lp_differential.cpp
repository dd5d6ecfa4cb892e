// Differential oracle for the simplex (labelled `differential` in ctest):
// property-based random LP generation — LP1/LP2-shaped programs, fully
// random mixed-relation programs, degenerate, near-singular and
// cutting-plane constructions — solved by the dense two-phase tableau
// oracle (tests/lp_tableau_oracle.hpp) AND by libsuu's revised engine,
// started from the oracle's first feasible (end-of-phase-1) basis and from
// its optimal basis, with matching verdicts required, zero NumericalFailure
// results, every claimed optimum re-checked against the constraints
// directly, and pivot counts gated against the oracle's. Infeasibility is the oracle's verdict alone: the engine needs a
// feasible starting basis, so it never meets an infeasible program. This suite
// is the merge gate for any future solver rewrite: a numerically different
// core that silently changes a verdict or an optimum fails here before it
// can corrupt an experiment.
//
// SUU_DIFFERENTIAL_INSTANCES scales the sweep (default 500; the nightly CI
// job runs tens of thousands).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lp/basis.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp_tableau_oracle.hpp"
#include "util/rng.hpp"

namespace suu::lp {
namespace {

int instance_budget() {
  const char* env = std::getenv("SUU_DIFFERENTIAL_INSTANCES");
  if (env == nullptr || *env == '\0') return 500;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env) return 500;
  return static_cast<int>(std::clamp(v, 10L, 10'000'000L));
}

Row row(std::vector<std::pair<int, double>> terms, Rel rel, double rhs) {
  Row r;
  r.terms = std::move(terms);
  r.rel = rel;
  r.rhs = rhs;
  return r;
}

// LP1-shaped: min t, per-job covering rows, per-machine load rows. Always
// feasible and bounded; moderately degenerate at the optimum.
Problem gen_lp1_shaped(util::Rng& rng) {
  const int n_jobs = 1 + static_cast<int>(rng.uniform_below(6));
  const int n_machines = 1 + static_cast<int>(rng.uniform_below(4));
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<Row> loads(static_cast<std::size_t>(n_machines));
  for (int j = 0; j < n_jobs; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < n_machines; ++i) {
      if (n_machines > 1 && rng.bernoulli(0.2)) continue;  // incapable pair
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.05 + rng.uniform01());
      loads[static_cast<std::size_t>(i)].terms.emplace_back(v, 1.0);
    }
    if (cover.terms.empty()) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.5);
      loads[0].terms.emplace_back(v, 1.0);
    }
    p.add_row(std::move(cover));
  }
  for (int i = 0; i < n_machines; ++i) {
    Row& load = loads[static_cast<std::size_t>(i)];
    if (load.terms.empty()) continue;
    load.terms.emplace_back(t, -1.0);
    load.rel = Rel::Le;
    load.rhs = 0.0;
    p.add_row(std::move(load));
  }
  return p;
}

// LP2-shaped: adds per-job length variables d_j with x_ij <= d_j, d_j >= 1
// and chain-length rows — the per-block program SUU-T solves.
Problem gen_lp2_shaped(util::Rng& rng) {
  const int n_jobs = 2 + static_cast<int>(rng.uniform_below(5));
  const int n_machines = 1 + static_cast<int>(rng.uniform_below(3));
  const int n_chains = 1 + static_cast<int>(rng.uniform_below(3));
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<int> d(static_cast<std::size_t>(n_jobs));
  for (int j = 0; j < n_jobs; ++j) d[static_cast<std::size_t>(j)] = p.add_var(0.0);
  std::vector<Row> loads(static_cast<std::size_t>(n_machines));
  for (int j = 0; j < n_jobs; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < n_machines; ++i) {
      if (n_machines > 1 && rng.bernoulli(0.25)) continue;
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.05 + 0.95 * rng.uniform01());
      loads[static_cast<std::size_t>(i)].terms.emplace_back(v, 1.0);
      p.add_row(row({{v, 1.0}, {d[static_cast<std::size_t>(j)], -1.0}},
                    Rel::Le, 0.0));
    }
    if (cover.terms.empty()) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.5);
      loads[0].terms.emplace_back(v, 1.0);
      p.add_row(row({{v, 1.0}, {d[static_cast<std::size_t>(j)], -1.0}},
                    Rel::Le, 0.0));
    }
    p.add_row(std::move(cover));
    p.add_row(row({{d[static_cast<std::size_t>(j)], 1.0}}, Rel::Ge, 1.0));
  }
  for (int i = 0; i < n_machines; ++i) {
    Row& load = loads[static_cast<std::size_t>(i)];
    if (load.terms.empty()) continue;
    load.terms.emplace_back(t, -1.0);
    load.rel = Rel::Le;
    load.rhs = 0.0;
    p.add_row(std::move(load));
  }
  for (int c = 0; c < n_chains; ++c) {
    Row len;
    len.rel = Rel::Le;
    len.rhs = 0.0;
    for (int j = c; j < n_jobs; j += n_chains) {
      len.terms.emplace_back(d[static_cast<std::size_t>(j)], 1.0);
    }
    len.terms.emplace_back(t, -1.0);
    p.add_row(std::move(len));
  }
  return p;
}

// Fully random mixed-relation programs: signs, relations and right-hand
// sides unconstrained, so the oracle meets infeasible and unbounded programs
// too (the engine must agree on unboundedness). A third of the rows are
// equalities, written as a Le/Ge pair.
Problem gen_random(util::Rng& rng) {
  const int nv = 1 + static_cast<int>(rng.uniform_below(8));
  Problem p;
  for (int v = 0; v < nv; ++v) p.add_var(2.0 * rng.uniform01() - 1.0);
  const int nr = 1 + static_cast<int>(rng.uniform_below(10));
  for (int r = 0; r < nr; ++r) {
    Row rr;
    const int terms = 1 + static_cast<int>(rng.uniform_below(
                              static_cast<std::uint64_t>(nv)));
    for (int k = 0; k < terms; ++k) {
      rr.terms.emplace_back(static_cast<int>(rng.uniform_below(
                                static_cast<std::uint64_t>(nv))),
                            4.0 * rng.uniform01() - 2.0);
    }
    const auto pick = rng.uniform_below(3);
    rr.rel = pick == 1 ? Rel::Ge : Rel::Le;
    rr.rhs = 6.0 * rng.uniform01() - 3.0;
    if (pick == 2) {
      Row ge = rr;
      ge.rel = Rel::Ge;
      p.add_row(std::move(rr));
      p.add_row(std::move(ge));
    } else {
      p.add_row(std::move(rr));
    }
  }
  return p;
}

// Degenerate: a feasible covering LP buried under duplicated rows, scaled
// copies and zero right-hand sides — many ties in every ratio test.
Problem gen_degenerate(util::Rng& rng) {
  Problem p = gen_lp1_shaped(rng);
  const std::size_t base_rows = p.rows.size();
  for (std::size_t r = 0; r < base_rows; ++r) {
    if (rng.bernoulli(0.5)) p.add_row(p.rows[r]);  // verbatim duplicate
    if (rng.bernoulli(0.3)) {
      Row scaled = p.rows[r];
      for (auto& [v, c] : scaled.terms) c *= 2.0;
      scaled.rhs *= 2.0;
      p.add_row(std::move(scaled));
    }
  }
  if (!p.rows.empty() && rng.bernoulli(0.5)) {
    // Redundant rows 0 <= 0 and 0 >= 0 through the first variable.
    p.add_row(row({{0, 1.0}, {0, -1.0}}, Rel::Le, 0.0));
    p.add_row(row({{0, 1.0}, {0, -1.0}}, Rel::Ge, 0.0));
  }
  return p;
}

// Near-singular: columns that are tiny relative perturbations of each
// other, so factorization pivots live close to the rejection threshold.
Problem gen_near_singular(util::Rng& rng) {
  const int nv = 2 + static_cast<int>(rng.uniform_below(3));
  Problem p;
  for (int v = 0; v < nv; ++v) p.add_var(-0.5 - rng.uniform01());
  const int nr = 2 + static_cast<int>(rng.uniform_below(3));
  std::vector<double> base(static_cast<std::size_t>(nr));
  for (double& b : base) b = 0.5 + rng.uniform01();
  for (int r = 0; r < nr; ++r) {
    Row rr;
    rr.rel = Rel::Le;
    rr.rhs = 1.0 + 2.0 * rng.uniform01();
    for (int v = 0; v < nv; ++v) {
      const double wobble = 1.0 + 1e-8 * static_cast<double>(v) +
                            1e-9 * rng.uniform01();
      rr.terms.emplace_back(v, base[static_cast<std::size_t>(r)] * wobble);
    }
    p.add_row(std::move(rr));
  }
  // Keep the region bounded so the near-parallel columns must actually be
  // priced against each other.
  Row cap;
  cap.rel = Rel::Le;
  cap.rhs = 10.0;
  for (int v = 0; v < nv; ++v) cap.terms.emplace_back(v, 1.0);
  p.add_row(std::move(cap));
  return p;
}

struct Generated {
  Problem p;
  const char* family;
};

Generated generate(util::Rng& rng, int which) {
  switch (which % 5) {
    case 0:
      return {gen_lp1_shaped(rng), "lp1"};
    case 1:
      return {gen_lp2_shaped(rng), "lp2"};
    case 2:
      return {gen_random(rng), "random"};
    case 3:
      return {gen_degenerate(rng), "degenerate"};
    default:
      return {gen_near_singular(rng), "near-singular"};
  }
}

double problem_scale(const Problem& p) {
  double scale = 1.0;
  for (const auto& r : p.rows) scale = std::max(scale, std::fabs(r.rhs));
  return scale;
}

TEST(LpDifferential, EnginesAgreeAcrossGeneratedInstances) {
  const int total = instance_budget();
  // The tableau oracle is the reference. The revised engine must match it
  // twice: from the oracle's first feasible basis (so phase-2 pivoting runs
  // from a non-optimal vertex) and from its optimal basis. A cell runs only
  // when the oracle has that basis free of artificials: an infeasible
  // program has neither, an unbounded one no optimal basis. The starting
  // basis changes the pivot path, never the verdict or the optimum — this
  // is the oracle that enforces it.
  //
  // From the first feasible basis both engines run the same Dantzig rule
  // over every column with the same ratio-test tie break, so the engine
  // must also retrace the oracle's phase 2 pivot for pivot. Roundoff may
  // part the two on an exact reduced-cost tie, so parity is gated on the
  // sweep: an exact match on at least 98% of the optimal cells and at most
  // 1% more pivots in total.
  const char* const cells[] = {"revised-from-phase1", "revised-from-optimal"};
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  int failures = 0;
  int cells_run = 0;
  int parity_cells = 0;
  int parity_exact = 0;
  std::int64_t parity_revised = 0;
  std::int64_t parity_oracle = 0;
  for (int i = 0; i < total; ++i) {
    util::Rng rng(0x5EED0000ULL + static_cast<std::uint64_t>(i));
    const Generated g = generate(rng, i);
    const std::string ctx =
        std::string("family=") + g.family + " i=" + std::to_string(i);

    const oracle::TableauSolution st = oracle::solve_tableau(g.p);
    const double feas_tol = 1e-6 * problem_scale(g.p);
    const bool feasible =
        st.status == Status::Optimal || st.status == Status::Unbounded;
    for (std::size_t c = 0; feasible && c < std::size(cells); ++c) {
      const std::vector<int>& start = c == 0 ? st.feasible_basis : st.basis;
      if (start.empty()) continue;
      ++cells_run;
      const Solution sr = solve_simplex(g.p, start);
      const std::string cctx = ctx + " " + cells[c];
      // Every family, the degenerate and near-singular ones included, must
      // finish without a numerical failure: the engine has no fallback.
      if (sr.status == Status::NumericalFailure) {
        ++failures;
        ADD_FAILURE() << cctx << ": numerical failure";
        continue;
      }
      ASSERT_EQ(st.status, sr.status)
          << cctx << " reference=" << to_string(st.status)
          << " got=" << to_string(sr.status);
      if (st.status != Status::Optimal) continue;
      // Equal objectives (the oracle condition) and directly verified
      // primal feasibility — never trust an engine's own verify.
      const double obj_tol = 1e-9 * (1.0 + std::fabs(st.objective));
      EXPECT_NEAR(st.objective, sr.objective, obj_tol) << cctx;
      EXPECT_LE(max_violation(g.p, sr.x), feas_tol) << cctx;
      if (c == 0) {
        const int phase2 = st.iterations - st.phase1_iterations;
        ++parity_cells;
        parity_exact += sr.iterations == phase2 ? 1 : 0;
        parity_revised += sr.iterations;
        parity_oracle += phase2;
      }
    }
    switch (st.status) {
      case Status::Optimal:
        ++optimal;
        break;
      case Status::Infeasible:
        ++infeasible;
        break;
      case Status::Unbounded:
        ++unbounded;
        break;
      case Status::IterLimit:
      case Status::NumericalFailure:
        break;
    }
    if (st.status != Status::Optimal) continue;
    EXPECT_LE(max_violation(g.p, st.x), feas_tol) << ctx;
  }
  // The sweep must genuinely exercise every verdict, and nearly every
  // feasible program must start the engine twice, or the generator has
  // rotted and the oracle is vacuous.
  EXPECT_GT(optimal, total / 4);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(unbounded, 0);
  EXPECT_GE(cells_run, 2 * optimal + unbounded - total / 100);
  const double exact_frac =
      static_cast<double>(parity_exact) / std::max(1, parity_cells);
  const double pivot_ratio =
      static_cast<double>(parity_revised) /
      static_cast<double>(std::max<std::int64_t>(1, parity_oracle));
  EXPECT_GE(exact_frac, 0.98);
  EXPECT_LE(pivot_ratio, 1.01);
  std::cout << "[differential] " << total << " instances: " << optimal
            << " optimal, " << infeasible << " infeasible, " << unbounded
            << " unbounded; " << cells_run << " engine solves, " << failures
            << " numerical failures\n"
            << "[differential] pivot parity from the first feasible basis: "
            << parity_exact << "/" << parity_cells << " exact ("
            << 100.0 * exact_frac << "%), revised/oracle phase-2 pivots "
            << parity_revised << "/" << parity_oracle << " (" << pivot_ratio
            << "x)\n";
}

TEST(LpDifferential, OptimalBasisResolvesMatch) {
  // The engine's own optimal basis, handed back as a starting basis (what a
  // caller re-solving a program does), must reproduce the optimum.
  const int total = std::max(20, instance_budget() / 10);
  for (int i = 0; i < total; ++i) {
    util::Rng rng(0xCAFE0000ULL + static_cast<std::uint64_t>(i));
    const Generated g = generate(rng, i % 2);  // lp1/lp2 families
    const std::string ctx =
        std::string("family=") + g.family + " i=" + std::to_string(i);

    const oracle::TableauSolution ref = oracle::solve_tableau(g.p);
    ASSERT_EQ(ref.status, Status::Optimal) << ctx;
    ASSERT_FALSE(ref.feasible_basis.empty()) << ctx;
    const Solution first = solve_simplex(g.p, ref.feasible_basis);
    ASSERT_EQ(first.status, Status::Optimal) << ctx;

    const Solution again = solve_simplex(g.p, first.basis);
    ASSERT_EQ(again.status, Status::Optimal) << ctx;
    EXPECT_NEAR(again.objective, first.objective,
                1e-9 * (1.0 + std::fabs(first.objective)))
        << ctx;
  }
}

// Degenerate cutting-plane masters (the Kelley master of LP1): maximize z
// subject to z - c_k·w <= 0 for k cuts (rhs 0, so every cut passes through
// the origin) and sum(w) <= 1, with far more rows than columns. Each cut's
// c_k is the machine-load vector of a random assignment of `jobs` jobs to
// `machines` machines. All rows are Le with rhs >= 0, so both engines start
// from the slack basis at the origin, the most degenerate vertex there is.
Problem gen_cutting_plane(util::Rng& rng, int cuts, int machines, int jobs) {
  std::vector<double> ell(static_cast<std::size_t>(jobs) *
                          static_cast<std::size_t>(machines));
  for (double& e : ell) e = 0.05 + rng.uniform01();
  Problem p;
  const int z = p.add_var(-1.0);
  for (int i = 0; i < machines; ++i) p.add_var(0.0);
  for (int k = 0; k < cuts; ++k) {
    std::vector<double> c(static_cast<std::size_t>(machines), 0.0);
    for (int j = 0; j < jobs; ++j) {
      const int i = static_cast<int>(
          rng.uniform_below(static_cast<std::uint64_t>(machines)));
      c[static_cast<std::size_t>(i)] +=
          ell[static_cast<std::size_t>(j) * static_cast<std::size_t>(machines) +
              static_cast<std::size_t>(i)];
    }
    Row cut;
    cut.rel = Rel::Le;
    cut.terms.emplace_back(z, 1.0);
    for (int i = 0; i < machines; ++i) {
      if (c[static_cast<std::size_t>(i)] != 0.0) {
        cut.terms.emplace_back(1 + i, -c[static_cast<std::size_t>(i)]);
      }
    }
    p.add_row(std::move(cut));
  }
  Row simplex;
  simplex.rel = Rel::Le;
  simplex.rhs = 1.0;
  for (int i = 0; i < machines; ++i) simplex.terms.emplace_back(1 + i, 1.0);
  p.add_row(std::move(simplex));
  return p;
}

TEST(LpDifferential, DegenerateCuttingPlaneMasters) {
  // Objective agreement, no NumericalFailure, and at most 1.25x the
  // oracle's pivots per master: both engines start from the slack basis
  // with the same full Dantzig pricing, so on these massively degenerate
  // masters the engine must not wander where the oracle does not.
  std::int64_t revised_pivots = 0;
  std::int64_t oracle_pivots = 0;
  for (const int cuts : {50, 100, 150, 200}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      util::Rng rng(0xC0770000ULL + seed * 1000 +
                    static_cast<std::uint64_t>(cuts));
      const Problem p = gen_cutting_plane(rng, cuts, 32, 64);
      const std::string ctx =
          "cuts=" + std::to_string(cuts) + " seed=" + std::to_string(seed);
      std::vector<int> slacks;
      for (int r = 0; r < static_cast<int>(p.rows.size()); ++r) {
        slacks.push_back(p.num_vars + r);
      }
      const oracle::TableauSolution ref = oracle::solve_tableau(p);
      ASSERT_EQ(ref.status, Status::Optimal) << ctx;
      EXPECT_EQ(ref.phase1_iterations, 0) << ctx;
      const Solution sr = solve_simplex(p, slacks);
      ASSERT_NE(sr.status, Status::NumericalFailure) << ctx;
      ASSERT_EQ(sr.status, Status::Optimal) << ctx;
      EXPECT_NEAR(sr.objective, ref.objective,
                  1e-9 * (1.0 + std::fabs(ref.objective)))
          << ctx;
      EXPECT_LE(max_violation(p, sr.x), 1e-6) << ctx;
      const double ratio = static_cast<double>(sr.iterations) /
                           std::max(1, ref.iterations);
      EXPECT_LE(ratio, 1.25) << ctx;
      std::cout << "[cutting-plane] " << ctx << ": revised " << sr.iterations
                << " pivots, oracle " << ref.iterations << " (" << ratio
                << "x)\n";
      revised_pivots += sr.iterations;
      oracle_pivots += ref.iterations;
    }
  }
  std::cout << "[cutting-plane] total revised/oracle pivot ratio "
            << static_cast<double>(revised_pivots) /
                   static_cast<double>(std::max<std::int64_t>(1, oracle_pivots))
            << "\n";
}

// Note on SUU_LP_REFACTOR_INTERVAL coverage: the env override is read once
// per process, so the scheduled mid-solve refactorization path is stressed
// by a SECOND ctest registration of this binary
// (test_lp_differential_refactor_stress in CMakeLists.txt) that sets
// SUU_LP_REFACTOR_INTERVAL=1 — refactorizing after every pivot is the
// harshest consistency check the eta file can get.

}  // namespace
}  // namespace suu::lp
