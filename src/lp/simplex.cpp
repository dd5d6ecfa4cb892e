#include "lp/simplex.hpp"

#include "lp/basis.hpp"
#include "obs/metrics.hpp"

namespace suu::lp {

Solution solve_simplex(const Problem& p, const std::vector<int>& basis) {
  Solution sol = solve_revised(p, build_standard_form(p), basis);
  // Per-solve telemetry flush: a handful of relaxed adds after a solve
  // that took at least tens of microseconds — nothing per pivot, so the
  // perf-smoke gate on BM_Lp1/1024 is unaffected.
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& solves = reg.counter("suu_lp_solves_total");
    static obs::Counter& pivots = reg.counter("suu_lp_pivots_total");
    static obs::Counter& refactors =
        reg.counter("suu_lp_refactorizations_total");
    static obs::Counter& ftran_calls = reg.counter("suu_lp_ftran_calls_total");
    static obs::Counter& ftran_nnz = reg.counter("suu_lp_ftran_nnz_total");
    solves.add();
    pivots.add(static_cast<std::uint64_t>(sol.iterations));
    refactors.add(static_cast<std::uint64_t>(sol.refactorizations));
    ftran_calls.add(static_cast<std::uint64_t>(sol.ftran_calls));
    ftran_nnz.add(static_cast<std::uint64_t>(sol.ftran_nnz));
  }
  return sol;
}

}  // namespace suu::lp
