// Frank–Wolfe solver for the fractional min-max covering program behind LP1:
//
//     minimize   t
//     subject to sum_i a[j][i] * x_ij  >=  demand_j        (cover job j)
//                sum_j x_ij            <=  t               (machine i load)
//                x >= 0
//
// Each job's feasible set is a scaled simplex (put the demand anywhere among
// its machines), so minimizing the softmax of machine loads with a per-job
// linear oracle is a textbook block Frank–Wolfe scheme. The gradient also
// yields a certified lower bound on the optimum: for softmax weights u
// (u >= 0, sum u = 1), every feasible x has
//     max_i load_i >= sum_i u_i load_i >= sum_j demand_j * min_i u_i / a_ij,
// so the solver reports both an assignment and a duality gap. Used instead
// of the simplex when n*m is large (rounding::Lp1Options); Lemma 2 only needs
// an O(1)-approximate fractional point, which the gap certifies.
#pragma once

#include <utility>
#include <vector>

namespace suu::lp {

/// Sparse covering system: cover[j] lists (machine, coefficient > 0).
struct CoverSystem {
  int n_machines = 0;
  std::vector<std::vector<std::pair<int, double>>> cover;
  std::vector<double> demand;  ///< one entry per job, > 0
};

struct FwOptions {
  int max_iters = 600;
  double rel_gap = 0.02;  ///< stop when (t - lower_bound)/t below this
};

struct FwSolution {
  /// x[j][k] pairs with cover[j][k]; sum_k a*x == demand_j exactly.
  std::vector<std::vector<double>> x;
  double t = 0.0;            ///< achieved max machine load
  double lower_bound = 0.0;  ///< certified LB on the optimal t
  int iterations = 0;
};

/// Requires every job to have at least one positive-coefficient machine.
FwSolution solve_fw_cover(const CoverSystem& sys, const FwOptions& opt = {});

}  // namespace suu::lp
