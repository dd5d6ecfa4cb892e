// Exact two-phase primal simplex — the LP substrate behind the paper's
// relaxations: LP1 (Section 3), LP2 (Section 4) and the Lawler–Labetoulle
// makespan LP (Appendix C).
//
// Two interchangeable engines solve the same standard form (lp/basis.hpp):
//
//  - Tableau: dense flat row-major arena (stride = total column count) so
//    pivots stream over cache lines; pricing keeps an incrementally
//    maintained candidate list of improving columns and eliminations touch
//    only the nonzero support of the pivot row. Bit-stable trajectories;
//    O(m·n) per pivot.
//  - Revised: eta-file basis factorization with FTRAN/BTRAN per pivot and
//    periodic refactorization (lp/basis.hpp); asymptotically the winner at
//    the n=256/1024 regimes. It finishes the solves it starts; a re-solve
//    on the tableau is the safety net for genuine numerical trouble only (a
//    singular refactorization or a failed verification), counted in
//    suu_lp_tableau_fallbacks_total and held at zero by the differential
//    tests.
//
// SimplexOptions::engine selects; Auto switches to Revised once the dense
// arena would exceed kRevisedAutoCells entries. A Bland's-rule fallback
// guards both engines against degenerate cycling. For large SUU-I instances
// the Frank–Wolfe solver in lp/fw_cover.hpp takes over (see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "lp/problem.hpp"

namespace suu::lp {

/// Floor on the magnitude a tableau entry must have to be accepted as a
/// pivot, regardless of how small SimplexOptions::tol is set. Dividing a
/// row by a smaller element amplifies roundoff enough to corrupt the basis
/// on degenerate LP2 instances.
inline constexpr double kPivotTol = 1e-9;

/// Consecutive non-improving pivots tolerated (as a multiple of m + n)
/// before the pricing switches to Bland's rule, whose least-index selection
/// provably cannot cycle. Dantzig pricing resumes once the objective makes
/// strict progress again.
inline constexpr int kBlandStallFactor = 4;

namespace detail {

/// Iteration budget shared by both engines (0 = automatic).
inline int simplex_iter_cap(int m, int n, int max_iters) {
  return max_iters > 0 ? max_iters : 200 * (m + n) + 20000;
}

/// Consecutive non-improving pivots tolerated before Bland's rule engages.
inline int simplex_stall_cap(int m, int n) {
  return kBlandStallFactor * (m + n) + 64;
}

/// The anti-cycling phase driver shared by the tableau and revised engines,
/// so the Dantzig-to-Bland stall escalation (and its termination argument:
/// each resumption of Dantzig pricing requires strict objective progress)
/// can never silently diverge between them. Engine must expose
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

/// SimplexEngine::Auto threshold: solve with the revised engine when the
/// dense tableau would need at least this many arena cells (rows × total
/// columns). Calibrated so the paper-scale table/figure experiments keep
/// their byte-recorded tableau trajectories while the n=256/1024 LP1
/// regimes (where the arena blows the cache and eliminations dominate) get
/// the factorized engine.
inline constexpr std::int64_t kRevisedAutoCells = 1 << 19;

/// The engine-selection rule solve_simplex applies once it knows the
/// standard-form shape: `rows` constraint rows by `n_total` total columns
/// (originals + slacks + artificials). Exposed so builders that can predict
/// their standard-form shape exactly (LP1's constructor can) may decide
/// whether a revised-only optimization — e.g. a crash basis that would
/// perturb the tableau's byte-recorded trajectories — will actually apply.
inline bool will_use_revised(SimplexEngine engine, std::int64_t rows,
                             std::int64_t n_total) {
  return engine == SimplexEngine::Revised ||
         (engine == SimplexEngine::Auto &&
          rows * n_total >= kRevisedAutoCells);
}

struct SimplexOptions {
  double tol = 1e-9;        ///< feasibility / reduced-cost tolerance
  int max_iters = 0;        ///< 0 = automatic (scales with problem size)
  bool verify = true;       ///< re-check feasibility of the result
  /// Optional starting basis for the revised engine: one non-artificial
  /// column per row, in the standard form's column numbering (what
  /// Solution::basis reports). An accepted seed is primal feasible, so the
  /// solve skips phase 1; a seed that does not fit (wrong size, singular,
  /// or an infeasible vertex) is dropped and the solve starts cold. The
  /// tableau engine ignores it. Empty = cold start.
  std::vector<int> seed_basis;
  /// Which engine solves the program; Auto switches on problem size.
  SimplexEngine engine = SimplexEngine::Auto;
  /// Entering-variable pricing rule (lp/pricing.hpp). Auto resolves per
  /// engine: Dantzig on the tableau (whose pivot trajectories are
  /// byte-recorded), Devex on the revised engine. Every rule reaches the
  /// same verdict and objective — pricing changes the pivot path, never
  /// the answer (the differential oracle crosses all rules to enforce it).
  PricingRule pricing = PricingRule::Auto;
};

/// Solve `min c·x, rows, x >= 0`. On Status::Optimal the returned point is
/// primal feasible within options.tol * scale and basic-optimal.
Solution solve_simplex(const Problem& p, const SimplexOptions& opt = {});

}  // namespace suu::lp
