#include "algos/lower_bounds.hpp"

#include <algorithm>

#include "rounding/lp2.hpp"

namespace suu::algos {

LowerBound lower_bound_independent(const core::Instance& inst,
                                   const rounding::Lp1Options& opt,
                                   const Relaxations* known) {
  double lp1 = 0.0;
  if (known != nullptr && known->lp1_all_half && known->solved_for(inst, opt)) {
    lp1 = *known->lp1_all_half;
  } else {
    std::vector<int> all(inst.num_jobs());
    for (int j = 0; j < inst.num_jobs(); ++j) all[j] = j;
    lp1 = rounding::solve_lp1(inst, all, 0.5, opt).lower_bound;
  }
  LowerBound lb;
  lb.lp1_half = lp1 / 2.0;
  lb.value = std::max(1.0, lb.lp1_half);
  return lb;
}

LowerBound lower_bound_chains(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains,
                              const rounding::Lp1Options& opt,
                              const Relaxations* known) {
  LowerBound lb = lower_bound_independent(inst, opt, known);
  double lp2 = 0.0;
  if (known != nullptr && known->lp2 &&
      known->fingerprint == inst.fingerprint() &&
      known->lp2_chains == chains) {
    lp2 = *known->lp2;
  } else {
    lp2 = rounding::solve_and_round_lp2(inst, chains).t_fractional;
  }
  lb.lp2_half = lp2 / 2.0;
  lb.value = std::max(lb.value, lb.lp2_half);
  return lb;
}

}  // namespace suu::algos
