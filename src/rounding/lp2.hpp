// LP2 (paper Section 4) and the Lemma 6 rounding for chain instances.
//
//   (LP2)  min t   s.t.  sum_i ell'_ij x_ij >= 1      for all j   (mass)
//                        sum_j x_ij         <= t      for all i   (load)
//                        sum_{j in Ck} d_j  <= t      for chains  (length)
//                        0 <= x_ij <= d_j,  d_j >= 1,  x integral
// with ell'_ij = min(ell_ij, 1).
//
// Lemma 6 rounds exactly like Lemma 2 except the group->machine edges carry
// capacity ceil(6 d*_j), which bounds the rounded job length d^_j and hence
// chain lengths by O(t*).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "lp/problem.hpp"
#include "sched/assignment.hpp"

namespace suu::rounding {

struct Lp2Result {
  sched::IntegralAssignment assignment;
  /// Rounded job lengths d^_j = max(1, max_i x^_ij) (every job, even those
  /// in no chain, gets a length).
  std::vector<std::int64_t> d;
  /// Fractional LP2 optimum (Lemma 5: a lower bound on O(E[T_OPT])).
  double t_fractional = 0.0;
  /// Simplex pivots spent on the relaxation.
  int simplex_iterations = 0;
};

/// LP2 over `chains` as the simplex solves it: the program (variable 0 is
/// t, then d_j per listed job in chain order, then x_ij over the capable
/// pairs; per listed job its x_ij <= d_j cap rows, its cover row and its
/// d_j >= 1 row, then one load row per machine capable of a listed job,
/// then one length row per chain), its crash basis (primal feasible: the
/// simplex's starting basis), the listed jobs in chain order, d_var[j] (-1
/// for unlisted jobs) and var_of[idx] = (machine, variable) over the
/// capable pairs of jobs[idx]. Same preconditions as solve_and_round_lp2.
struct Lp2Program {
  lp::Problem problem;
  std::vector<int> crash_basis;
  int t_var = 0;
  std::vector<int> jobs;
  std::vector<int> d_var;
  std::vector<std::vector<std::pair<int, int>>> var_of;
};

Lp2Program build_lp2_program(const core::Instance& inst,
                             const std::vector<std::vector<int>>& chains);

/// Solve the LP2 relaxation with the simplex and round per Lemma 6.
/// `chains` must partition a subset of jobs into precedence-ordered chains;
/// every job appearing in a chain gets mass >= 1.
///
/// The revised simplex solves build_lp2_program's program from its crash
/// basis with Dantzig pricing; a numerical failure throws.
Lp2Result solve_and_round_lp2(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains);

}  // namespace suu::rounding
