// Exact two-phase primal simplex — the LP substrate behind the paper's
// relaxations: LP1 (Section 3), LP2 (Section 4) and the Lawler–Labetoulle
// makespan LP (Appendix C).
//
// One engine: the revised simplex over an eta-file basis factorization
// (lp/basis.hpp), with FTRAN/BTRAN per pivot and periodic refactorization.
// It starts from an optional seed basis (LP1, LP2 and the
// Lawler–Labetoulle LP always pass their crash bases) or from the
// slack/artificial basis of the standard form, and prices entering columns
// by Dantzig's rule (most negative reduced cost) over a partial-pricing
// shortlist.
// Numerical trouble is reported as Status::NumericalFailure, never papered
// over by a re-solve; the differential tests hold it at zero against a
// dense-tableau oracle that lives under tests/. A Bland's-rule fallback
// guards against degenerate cycling. For large SUU-I instances the
// Frank–Wolfe solver in lp/fw_cover.hpp takes over LP1
// (rounding::Lp1Options::simplex_size_limit); docs/lp-internals.md has
// the design.
#pragma once

#include <vector>

#include "lp/problem.hpp"

namespace suu::lp {

/// Floor on the magnitude an entry must have to be accepted as a pivot,
/// regardless of how small SimplexOptions::tol is set. Dividing a row by a
/// smaller element amplifies roundoff enough to corrupt the basis on
/// degenerate LP2 instances.
inline constexpr double kPivotTol = 1e-9;

/// Consecutive non-improving pivots tolerated (as a multiple of m + n)
/// before the pricing switches to Bland's rule, whose least-index selection
/// provably cannot cycle. Dantzig pricing resumes once the objective makes
/// strict progress again.
inline constexpr int kBlandStallFactor = 4;

namespace detail {

/// Iteration budget (0 = automatic).
inline int simplex_iter_cap(int m, int n, int max_iters) {
  return max_iters > 0 ? max_iters : 200 * (m + n) + 20000;
}

/// Consecutive non-improving pivots tolerated before Bland's rule engages.
inline int simplex_stall_cap(int m, int n) {
  return kBlandStallFactor * (m + n) + 64;
}

/// The anti-cycling phase driver: the Dantzig-to-Bland stall escalation and
/// its termination argument (each resumption of Dantzig pricing requires
/// strict objective progress). A template so the differential oracle's
/// dense tableau runs the identical escalation. Engine must expose
/// `iterate(bool bland)` returning 0 = optimal, 1 = pivoted, 2 = unbounded
/// (negative values pass through for engine-specific trouble) and
/// `objective()` for the active phase. Returns the first non-pivot result,
/// or 3 once `iters` reaches `iter_cap`.
template <typename Engine>
int run_simplex_phase(Engine& eng, double tol, int iter_cap, int stall_cap,
                      int& iters) {
  double last_obj = eng.objective();
  int stall = 0;
  bool bland = false;
  while (iters < iter_cap) {
    ++iters;
    const int res = eng.iterate(bland);
    if (res != 1) return res;
    const double obj = eng.objective();
    if (obj < last_obj - tol) {
      stall = 0;
      bland = false;
      last_obj = obj;
    } else if (++stall > stall_cap) {
      bland = true;
    }
  }
  return 3;  // iteration limit
}

}  // namespace detail

/// Tolerances, the iteration budget and the starting basis. Every program
/// is priced by Dantzig's rule; each caller with a crash basis passes it as
/// seed_basis.
struct SimplexOptions {
  double tol = 1e-9;        ///< feasibility / reduced-cost tolerance
  int max_iters = 0;        ///< 0 = automatic (scales with problem size)
  bool verify = true;       ///< re-check feasibility of the result
  /// Optional starting basis: one non-artificial column per row, in the
  /// standard form's column numbering (what Solution::basis reports). An
  /// accepted seed is primal feasible, so the solve skips phase 1; a seed
  /// that does not fit (wrong size, singular, or an infeasible vertex) is
  /// dropped and the solve starts cold. Empty = cold start.
  std::vector<int> seed_basis;
};

/// Solve `min c·x, rows, x >= 0`. On Status::Optimal the returned point is
/// primal feasible within options.tol * scale and basic-optimal.
/// Status::NumericalFailure means the factorization degraded; the result
/// carries no point.
Solution solve_simplex(const Problem& p, const SimplexOptions& opt = {});

}  // namespace suu::lp
