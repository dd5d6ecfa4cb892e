#include "lp/simplex.hpp"

#include <cmath>

#include "lp/basis.hpp"
#include "obs/metrics.hpp"

namespace suu::lp {
namespace {

Solution solve_simplex_impl(const Problem& p, const SimplexOptions& opt) {
  if (p.num_vars == 0) {
    // Trivially optimal iff every row is satisfied by x = {}.
    Solution sol;
    sol.objective = 0.0;
    sol.status = Status::Optimal;
    for (const auto& row : p.rows) {
      const bool ok = (row.rel == Rel::Le && row.rhs >= -opt.tol) ||
                      (row.rel == Rel::Ge && row.rhs <= opt.tol) ||
                      (row.rel == Rel::Eq && std::fabs(row.rhs) <= opt.tol);
      if (!ok) sol.status = Status::Infeasible;
    }
    return sol;
  }
  return solve_revised(p, build_standard_form(p), opt);
}

}  // namespace

Solution solve_simplex(const Problem& p, const SimplexOptions& opt) {
  Solution sol = solve_simplex_impl(p, opt);
  // Per-solve telemetry flush: a handful of relaxed adds after a solve
  // that took at least tens of microseconds — nothing per pivot, so the
  // perf-smoke gate on BM_Lp1/1024 is unaffected.
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& solves = reg.counter("suu_lp_solves_total");
    static obs::Counter& pivots = reg.counter("suu_lp_pivots_total");
    static obs::Counter& p1_pivots = reg.counter("suu_lp_phase1_pivots_total");
    static obs::Counter& refactors =
        reg.counter("suu_lp_refactorizations_total");
    static obs::Counter& ftran_calls = reg.counter("suu_lp_ftran_calls_total");
    static obs::Counter& ftran_nnz = reg.counter("suu_lp_ftran_nnz_total");
    solves.add();
    pivots.add(static_cast<std::uint64_t>(sol.iterations));
    p1_pivots.add(static_cast<std::uint64_t>(sol.phase1_iterations));
    refactors.add(static_cast<std::uint64_t>(sol.refactorizations));
    ftran_calls.add(static_cast<std::uint64_t>(sol.ftran_calls));
    ftran_nnz.add(static_cast<std::uint64_t>(sol.ftran_nnz));
  }
  return sol;
}

}  // namespace suu::lp
