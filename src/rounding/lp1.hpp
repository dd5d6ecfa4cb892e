// LP1 (paper Section 3) and the Lemma 2 rounding pipeline.
//
//   (LP1)  min t   s.t.  sum_i ell'_ij x_ij >= L   for j in J'
//                        sum_j x_ij         <= t   for i in M
//                        x integral, >= 0
// with ell'_ij = min(ell_ij, L) (truncation changes nothing for integral x).
//
// solve_lp1 computes the *fractional* relaxation: exactly with the revised
// simplex from a greedy crash basis for moderate sizes, or via the
// certified Frank–Wolfe solver when n*m is large. round_lp1 then follows
// Lemma 2: group machines per job by floor(log2 ell'), scale group totals
// by 6 and floor, and route an integral max-flow (source -> groups ->
// machines -> sink) whose edge flows are the integral assignment. The
// result delivers log mass >= L to every job in J' with machine loads
// <= ceil(6 t*).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "lp/problem.hpp"
#include "sched/assignment.hpp"

namespace suu::rounding {

struct Lp1Options {
  /// LP1 runs the simplex when |J'| * m is at most this limit and
  /// Frank–Wolfe otherwise: 0 means Frank–Wolfe always, INT_MAX the
  /// simplex always.
  int simplex_size_limit = 4000;

  bool operator==(const Lp1Options&) const = default;
};

/// LP1(J', L) as the simplex solves it: the program (variable 0 is t,
/// cover rows normalized by L come first, one per listed job, then one load
/// row per capable machine), its greedy crash basis (primal feasible: the
/// simplex's starting basis) and the variable map var_of[idx] = (machine,
/// variable) over the capable pairs of jobs[idx]. Same preconditions as
/// solve_lp1.
struct Lp1Program {
  lp::Problem problem;
  std::vector<int> crash_basis;
  int t_var = 0;
  std::vector<std::vector<std::pair<int, int>>> var_of;
};

Lp1Program build_lp1_program(const core::Instance& inst,
                             const std::vector<int>& jobs, double L);

struct Lp1Fractional {
  /// Achieved fractional value (max machine load). For the simplex this is
  /// the LP optimum; for Frank–Wolfe it is within the certified gap of it.
  double t = 0.0;
  /// Certified lower bound on the fractional LP optimum (== t for simplex).
  double lower_bound = 0.0;
  /// Sparse solution: x[idx] pairs with jobs[idx]; entries (machine, value).
  std::vector<std::vector<std::pair<int, double>>> x;
  /// Simplex pivots spent (0 for Frank–Wolfe).
  int simplex_iterations = 0;
  /// FTRAN telemetry forwarded from lp::Solution (0 for Frank–Wolfe).
  /// ftran_nnz / (ftran_calls * rows) is the average fill the sparse eta
  /// kernels actually touched — the perf benches report it.
  std::int64_t ftran_calls = 0;
  std::int64_t ftran_nnz = 0;
  /// Frank–Wolfe iterations spent (0 for the simplex), so a caller can see
  /// which LP1 path ran.
  int fw_iterations = 0;
};

/// Solve the relaxation of LP1(J', L). `jobs` lists J' (must be non-empty,
/// duplicate-free); L > 0. The simplex path solves build_lp1_program's
/// program from its crash basis with Dantzig pricing.
Lp1Fractional solve_lp1(const core::Instance& inst,
                        const std::vector<int>& jobs, double L,
                        const Lp1Options& opt = {});

/// Lemma 2: round a fractional solution to an integral assignment with
/// per-job truncated log mass >= L and max load <= ceil(6 t*) (verified;
/// numerically-starved jobs are topped up on their best machine).
///
/// `trim`: the paper's construction intentionally over-delivers ~6L of mass
/// per job (the floor(6 D) source capacities). Trimming removes surplus
/// steps cheapest-mass-first while keeping mass >= L — it can only lower
/// loads, so every Lemma 2 guarantee is preserved. On by default; the
/// F-LP bench ablates it.
sched::IntegralAssignment round_lp1(const core::Instance& inst,
                                    const std::vector<int>& jobs, double L,
                                    const Lp1Fractional& frac,
                                    bool trim = true);

/// Remove surplus integral steps from `x` while keeping every listed job's
/// truncated log mass at least L. Steps with the smallest ell' go first.
sched::IntegralAssignment trim_assignment(const core::Instance& inst,
                                          const std::vector<int>& jobs,
                                          double L,
                                          const sched::IntegralAssignment& x);

/// Full pipeline: solve + round + build the oblivious schedule
/// Sigma_{LP1(J',L)} from the paper ("each machine runs its jobs back to
/// back"; length = max machine load).
struct Lp1Schedule {
  sched::IntegralAssignment assignment;
  sched::ObliviousSchedule schedule;
  double t_fractional = 0.0;
  double lower_bound = 0.0;
};

Lp1Schedule build_lp1_schedule(const core::Instance& inst,
                               const std::vector<int>& jobs, double L,
                               const Lp1Options& opt = {});

}  // namespace suu::rounding
