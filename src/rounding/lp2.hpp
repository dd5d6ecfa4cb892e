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
  /// Simplex pivots spent on the relaxation, and the phase-1 share.
  int simplex_iterations = 0;
  int simplex_phase1_iterations = 0;
};

/// Solve the LP2 relaxation with the simplex and round per Lemma 6.
/// `chains` must partition a subset of jobs into precedence-ordered chains;
/// every job appearing in a chain gets mass >= 1.
///
/// Every solve starts cold on the revised simplex with the default Devex
/// pricing; a numerical failure throws.
Lp2Result solve_and_round_lp2(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains);

}  // namespace suu::rounding
