// Lawler–Labetoulle [8]: optimal preemptive schedules for R|pmtn|Cmax.
//
// LP (exact, not a relaxation — LL78 prove the optimum is achievable):
//     min C   s.t.  sum_i v_ij x_ij >= p_j   (work requirement)
//                   sum_j x_ij      <= C     (machine load)
//                   sum_i x_ij      <= C     (no job parallelism)
//                   x >= 0
// followed by the BvN slice extraction (bvn.hpp) to realize the fractional
// timetable as an actual preemptive schedule of length C.
//
// This is the substrate STC-I (Appendix C) resolves each of its doubling
// rounds against. The simplex starts from the LP's primal-feasible crash
// basis (docs/lp-internals.md, "Crash bases").
#pragma once

#include <vector>

#include "stoch/bvn.hpp"
#include "stoch/instance.hpp"

namespace suu::stoch {

struct PreemptiveSchedule {
  double makespan = 0.0;       ///< LP optimum C*
  std::vector<Slice> slices;   ///< realization; durations sum to C*
  /// Timetable x_ij (row-major machine x job over the *selected* jobs,
  /// indexed by position in `jobs` passed to solve_rpmtn).
  std::vector<double> x;
  /// Simplex pivots the LP took from its crash basis.
  int simplex_iterations = 0;
};

/// Solve R|pmtn|Cmax for the given subset of jobs with processing
/// requirements p (indexed like `jobs`). Speeds come from the instance.
PreemptiveSchedule solve_rpmtn(const StochInstance& inst,
                               const std::vector<int>& jobs,
                               const std::vector<double>& p);

/// C* of the same LP without the BvN slices: what a caller that needs only
/// the optimum (STC-I's offline benchmark) pays for. Equal, bit for bit,
/// to solve_rpmtn(inst, jobs, p).makespan.
double rpmtn_makespan(const StochInstance& inst, const std::vector<int>& jobs,
                      const std::vector<double>& p);

}  // namespace suu::stoch
