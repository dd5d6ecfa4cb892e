#include "lp/fw_cover.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace suu::lp {
namespace {

constexpr int kMaxIters = 600;
constexpr double kRelGap = 0.02;  // stop when (t - lower_bound)/t below this
// x = scale * x_tilde; below this scale is folded into x_tilde so that the
// per-step increments sigma * v / scale stay far from overflow.
constexpr double kMinScale = 1e-100;

struct Derivatives {
  double first = 0.0;
  double second = 0.0;
};

// phi'(sigma) and phi''(sigma) for the softmax of the loads
// load_i + sigma * dir_i at temperature eta.
Derivatives derivatives(const std::vector<double>& load,
                        const std::vector<double>& dir, double eta,
                        double sigma) {
  double top = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < load.size(); ++i) {
    top = std::max(top, load[i] + sigma * dir[i]);
  }
  double w_sum = 0.0, d1 = 0.0, d2 = 0.0;
  for (std::size_t i = 0; i < load.size(); ++i) {
    const double w = std::exp(eta * (load[i] + sigma * dir[i] - top));
    w_sum += w;
    d1 += w * dir[i];
    d2 += w * dir[i] * dir[i];
  }
  d1 /= w_sum;
  return {d1, eta * std::max(0.0, d2 / w_sum - d1 * d1)};
}

// argmin over [0, 1] of the convex phi(sigma) by safeguarded Newton: each
// trial point that leaves the bracket [lo, hi] (phi' < 0 at lo, > 0 at hi)
// is replaced by the bracket's midpoint.
double line_search(const std::vector<double>& load,
                   const std::vector<double>& dir, double eta) {
  if (derivatives(load, dir, eta, 1.0).first <= 0) return 1.0;
  double lo = 0.0, hi = 1.0, sigma = 0.0;
  for (int it = 0; it < 60; ++it) {
    const Derivatives d = derivatives(load, dir, eta, sigma);
    if (d.first < 0) {
      lo = sigma;
    } else if (d.first > 0 && sigma > 0) {
      hi = sigma;
    } else {
      return sigma;  // stationary (at 0: no descent along dir)
    }
    double next = d.second > 0 ? sigma - d.first / d.second : hi;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - sigma) <= 1e-12) return next;
    sigma = next;
  }
  return sigma;
}

}  // namespace

FwSolution solve_fw_cover(const CoverSystem& sys) {
  const int n_jobs = sys.num_jobs();
  const int m = sys.n_machines;
  SUU_CHECK(static_cast<int>(sys.ptr.size()) == n_jobs + 1);
  SUU_CHECK(sys.ptr.front() == 0);
  SUU_CHECK(static_cast<std::size_t>(sys.ptr.back()) == sys.machine.size());
  SUU_CHECK(sys.coef.size() == sys.machine.size());
  SUU_CHECK(m > 0);

  const std::size_t nnz = sys.machine.size();
  FwSolution sol;
  sol.x.assign(nnz, 0.0);
  if (n_jobs == 0) return sol;

  // Reciprocals 1/a_ij: the oracle prices u_i / a_ij by multiplication.
  std::vector<double> inv(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    SUU_CHECK(sys.machine[k] >= 0 && sys.machine[k] < m);
    SUU_CHECK(sys.coef[k] > 0);
    inv[k] = 1.0 / sys.coef[k];
  }

  // Initial point: each job covered entirely by its highest-rate machine.
  // The iterate is x = scale * xt.
  std::vector<double>& xt = sol.x;
  double scale = 1.0;
  std::vector<double> load(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n_jobs; ++j) {
    const int begin = sys.ptr[static_cast<std::size_t>(j)];
    const int end = sys.ptr[static_cast<std::size_t>(j) + 1];
    SUU_CHECK_MSG(end > begin, "job " << j << " has no capable machine");
    SUU_CHECK(sys.demand[static_cast<std::size_t>(j)] > 0);
    int best = begin;
    for (int k = begin + 1; k < end; ++k) {
      if (sys.coef[static_cast<std::size_t>(k)] >
          sys.coef[static_cast<std::size_t>(best)]) {
        best = k;
      }
    }
    const auto b = static_cast<std::size_t>(best);
    xt[b] = sys.demand[static_cast<std::size_t>(j)] * inv[b];
    load[static_cast<std::size_t>(sys.machine[b])] += xt[b];
  }

  std::vector<double> u(static_cast<std::size_t>(m));     // softmax weights
  std::vector<double> yload(static_cast<std::size_t>(m));  // oracle's loads
  std::vector<double> dir(static_cast<std::size_t>(m));    // yload - load
  std::vector<int> pick(static_cast<std::size_t>(n_jobs));

  double best_lb = 0.0;
  for (int iter = 0; iter < kMaxIters; ++iter) {
    ++sol.iterations;
    const double t_cur = *std::max_element(load.begin(), load.end());
    if (t_cur <= 0) break;

    // Softmax weights with temperature tied to the current value, so the
    // smoothing error stays a constant fraction of t_cur.
    const double eta = std::log(static_cast<double>(m) + 2.0) * 8.0 / t_cur;
    double wsum = 0.0;
    for (int i = 0; i < m; ++i) {
      u[i] = std::exp(eta * (load[i] - t_cur));  // shift for stability
      wsum += u[i];
    }
    for (auto& w : u) w /= wsum;

    // Linear oracle: each job moves all demand to its cheapest machine
    // under prices u. Also yields the certified lower bound.
    std::fill(yload.begin(), yload.end(), 0.0);
    double lb = 0.0;
    for (int j = 0; j < n_jobs; ++j) {
      const int end = sys.ptr[static_cast<std::size_t>(j) + 1];
      int best = sys.ptr[static_cast<std::size_t>(j)];
      double best_price = std::numeric_limits<double>::infinity();
      for (int k = best; k < end; ++k) {
        const double price = u[static_cast<std::size_t>(
                                  sys.machine[static_cast<std::size_t>(k)])] *
                              inv[static_cast<std::size_t>(k)];
        if (price < best_price) {
          best_price = price;
          best = k;
        }
      }
      const double d = sys.demand[static_cast<std::size_t>(j)];
      pick[static_cast<std::size_t>(j)] = best;
      lb += d * best_price;
      yload[static_cast<std::size_t>(
          sys.machine[static_cast<std::size_t>(best)])] +=
          d * inv[static_cast<std::size_t>(best)];
    }
    best_lb = std::max(best_lb, lb);

    if (t_cur - best_lb <= kRelGap * t_cur) break;

    // Frank–Wolfe step toward the oracle point, sigma by line search.
    for (int i = 0; i < m; ++i) dir[i] = yload[i] - load[i];
    const double sigma = line_search(load, dir, eta);
    if (sigma <= 0) break;  // stationary: later iterations would repeat
    scale *= 1.0 - sigma;
    if (scale < kMinScale) {  // includes the full step's scale == 0
      for (auto& v : xt) v *= scale;
      scale = 1.0;
    }
    const double c = sigma / scale;
    for (int j = 0; j < n_jobs; ++j) {
      const auto k =
          static_cast<std::size_t>(pick[static_cast<std::size_t>(j)]);
      xt[k] += c * sys.demand[static_cast<std::size_t>(j)] * inv[k];
    }
    for (int i = 0; i < m; ++i) {
      load[i] = (1.0 - sigma) * load[i] + sigma * yload[i];
    }
  }

  // Materialize x and recompute the exact loads from it (drift-free).
  std::fill(load.begin(), load.end(), 0.0);
  for (std::size_t k = 0; k < nnz; ++k) {
    xt[k] *= scale;
    load[static_cast<std::size_t>(sys.machine[k])] += xt[k];
  }
  sol.t = *std::max_element(load.begin(), load.end());
  sol.lower_bound = best_lb;

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& solves = reg.counter("suu_lp_fw_solves_total");
    static obs::Counter& iters = reg.counter("suu_lp_fw_iterations_total");
    solves.add();
    iters.add(static_cast<std::uint64_t>(sol.iterations));
  }
  return sol;
}

}  // namespace suu::lp
