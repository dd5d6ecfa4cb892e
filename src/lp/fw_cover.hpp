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
//
// Step rule: exact line search (Jaggi 2013, "Revisiting Frank–Wolfe"). The
// loads are affine in the step sigma, load(sigma) = (1 - sigma) load +
// sigma y with y the oracle vertex's loads, so the smoothed objective
//     phi(sigma) = (1/eta) log sum_i exp(eta * load_i(sigma))
// and its first two derivatives cost O(m). A safeguarded Newton iteration
// minimizes the convex phi on [0, 1] (sigma = 1 when phi'(1) <= 0), with
// bisection as the fallback. eta = 8 log(m + 2) / t ties the smoothing
// error to the current value t.
//
// Layout: the system is CSR over jobs. Job j's capable machines are
// machine[ptr[j] .. ptr[j+1]) with coefficients coef[] at the same
// positions, and FwSolution::x is aligned with that range. The iterate is
// kept as x = scale * x_tilde, so a step multiplies the scalar scale by
// (1 - sigma) and adds to one entry per job (the oracle's pick): O(n) per
// step instead of O(nnz). A full step resets x_tilde to the oracle vertex,
// and scale is folded back into x_tilde before it can underflow.
#pragma once

#include <vector>

namespace suu::lp {

/// Sparse covering system in CSR form: job j covers with (machine[k],
/// coef[k] > 0) for k in [ptr[j], ptr[j+1]).
struct CoverSystem {
  int n_machines = 0;
  std::vector<int> ptr{0};     ///< one entry per job plus one, ptr[0] == 0
  std::vector<int> machine;    ///< per nonzero
  std::vector<double> coef;    ///< per nonzero, > 0
  std::vector<double> demand;  ///< one entry per job, > 0

  int num_jobs() const { return static_cast<int>(demand.size()); }
  /// Appends a job with no machines yet; add() fills its row.
  void add_job(double d) {
    demand.push_back(d);
    ptr.push_back(ptr.back());
  }
  /// Appends (machine i, coefficient a) to the last job's row.
  void add(int i, double a) {
    machine.push_back(i);
    coef.push_back(a);
    ++ptr.back();
  }
};

struct FwSolution {
  /// x[k] pairs with (machine[k], coef[k]); each job's sum_k coef*x meets
  /// its demand up to rounding.
  std::vector<double> x;
  double t = 0.0;            ///< achieved max machine load
  double lower_bound = 0.0;  ///< certified LB on the optimal t
  int iterations = 0;
};

/// Requires every job to have at least one positive-coefficient machine.
/// Stops at a 2% certified gap or after 600 iterations.
FwSolution solve_fw_cover(const CoverSystem& sys);

}  // namespace suu::lp
