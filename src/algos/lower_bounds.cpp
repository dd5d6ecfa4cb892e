#include "algos/lower_bounds.hpp"

#include <algorithm>

#include "rounding/lp2.hpp"

namespace suu::algos {

LowerBound lower_bound_independent(const core::Instance& inst,
                                   const rounding::Lp1Options& opt) {
  std::vector<int> all(inst.num_jobs());
  for (int j = 0; j < inst.num_jobs(); ++j) all[j] = j;
  const rounding::Lp1Fractional frac = rounding::solve_lp1(inst, all, 0.5, opt);
  LowerBound lb;
  lb.lp1_half = frac.lower_bound / 2.0;
  lb.value = std::max(1.0, lb.lp1_half);
  return lb;
}

LowerBound lower_bound_chains(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains,
                              const rounding::Lp1Options& opt) {
  LowerBound lb = lower_bound_independent(inst, opt);
  const rounding::Lp2Result lp2 =
      rounding::solve_and_round_lp2(inst, chains, opt.engine, opt.pricing);
  lb.lp2_half = lp2.t_fractional / 2.0;
  lb.value = std::max(lb.value, lb.lp2_half);
  return lb;
}

}  // namespace suu::algos
