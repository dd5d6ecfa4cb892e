// Exact primal simplex — the LP substrate behind the paper's relaxations:
// LP1 (Section 3), LP2 (Section 4) and the Lawler–Labetoulle makespan LP
// (Appendix C).
//
// One engine: the revised simplex over an eta-file basis factorization
// (lp/basis.hpp), with FTRAN/BTRAN per pivot and periodic refactorization.
// It starts from a primal-feasible basis the caller supplies (LP1, LP2 and
// the Lawler–Labetoulle LP pass their crash bases) and prices every
// nonbasic column each iteration by Dantzig's rule (most negative reduced
// cost, lowest index on ties). There is no phase 1: a starting basis that is
// singular or whose vertex is infeasible is reported, not repaired.
// Numerical trouble is reported as Status::NumericalFailure, never papered
// over by a re-solve; the differential tests hold it at zero against a
// dense two-phase tableau oracle that lives under tests/. A Bland's-rule
// fallback guards against degenerate cycling. For large SUU-I instances the
// Frank–Wolfe solver in lp/fw_cover.hpp takes over LP1
// (rounding::Lp1Options::simplex_size_limit); docs/lp-internals.md has
// the design.
#pragma once

#include <vector>

#include "lp/problem.hpp"

namespace suu::lp {

/// Feasibility and reduced-cost tolerance.
inline constexpr double kSimplexTol = 1e-9;

/// Floor on the magnitude an entry must have to be accepted as a pivot.
/// Dividing a row by a smaller element amplifies roundoff enough to corrupt
/// the basis on degenerate LP2 instances.
inline constexpr double kPivotTol = 1e-9;

/// Consecutive non-improving pivots tolerated (as a multiple of m + n)
/// before the pricing switches to Bland's rule, whose least-index selection
/// provably cannot cycle. Dantzig pricing resumes once the objective makes
/// strict progress again.
inline constexpr int kBlandStallFactor = 4;

namespace detail {

/// Iteration budget.
inline int simplex_iter_cap(int m, int n) { return 200 * (m + n) + 20000; }

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
/// `objective()` for the active phase. `iters` counts pivots. Returns the
/// first non-pivot result, or 3 once `iters` reaches `iter_cap`.
template <typename Engine>
int run_simplex_phase(Engine& eng, int iter_cap, int stall_cap, int& iters) {
  double last_obj = eng.objective();
  int stall = 0;
  bool bland = false;
  while (iters < iter_cap) {
    const int res = eng.iterate(bland);
    if (res != 1) return res;
    ++iters;
    const double obj = eng.objective();
    if (obj < last_obj - kSimplexTol) {
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

/// Solve `min c·x, rows, x >= 0` from `basis`: one column per row in the
/// standard form's numbering (originals, then row r's slack or surplus at
/// p.num_vars + r; what Solution::basis reports), in any order.
///
/// A basis of the wrong size, or with an out-of-range or repeated column,
/// is a caller bug and fails SUU_CHECK. A singular basis, or one whose
/// vertex is primal infeasible, returns Status::NumericalFailure; the solve
/// never restarts from another basis. On Status::Optimal the returned point
/// is primal feasible (re-checked with max_violation) and basic-optimal.
/// Status::NumericalFailure carries no point.
Solution solve_simplex(const Problem& p, const std::vector<int>& basis);

}  // namespace suu::lp
