// Lower bounds on E[T_OPT] used as the denominator of every measured
// approximation ratio.
//
// Lemma 1 / Appendix D: E[T_OPT] >= (1/2) * t_LP1(J, 1/2) — the optimum must
// deliver 1/2 a unit of log mass to every job whose hidden r_j exceeds 1/2,
// and averaging over the uniformly random subset U of such jobs gives the
// bound. The derivation never uses independence, so it applies verbatim to
// chain and forest instances.
//
// Lemma 5 (via [11, Lemma 4.2]): the fractional LP2 optimum is O(E[T_OPT]);
// we use t_LP2 / 2 and record the constant in EXPERIMENTS.md. For forests we
// evaluate LP2 on the chain decomposition (dropping cross-block edges only
// relaxes the program, so it stays a valid bound).
//
// These are the same programs the paper's algorithms solve first: SUU-I's
// first round is LP1(J, 1/2) and SUU-C rounds LP2 on the dag's chains. A
// solver prepared through suu::api hands over the optima it already solved
// as Relaxations, and the bounds below reuse a value only when the program
// they would solve is identical. The solvers are deterministic, so a
// reused value is the same double a fresh solve would return.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "rounding/lp1.hpp"

namespace suu::algos {

struct LowerBound {
  double lp1_half = 0.0;  ///< t_LP1(J, 1/2) / 2 (certified fractional LB)
  double lp2_half = 0.0;  ///< t_LP2 / 2 when chains are given, else 0
  double value = 1.0;     ///< max(1, lp1_half, lp2_half)
};

/// Relaxation optima already solved for one instance, each tagged with the
/// program it came from: LP1 by `opt`, LP2 (which takes no options) by
/// `lp2_chains`.
struct Relaxations {
  std::uint64_t fingerprint = 0;  ///< core::Instance::fingerprint()
  rounding::Lp1Options opt;
  /// Certified lower bound of LP1(J, 1/2) over all jobs J
  /// (rounding::Lp1Fractional::lower_bound).
  std::optional<double> lp1_all_half;
  /// Fractional LP2 optimum over `lp2_chains`.
  std::optional<double> lp2;
  std::vector<std::vector<int>> lp2_chains;

  /// True when lp1_all_half was solved for `inst` under `o`.
  bool solved_for(const core::Instance& inst,
                  const rounding::Lp1Options& o) const {
    return fingerprint == inst.fingerprint() && opt == o;
  }
};

/// Lemma 1 bound (valid for any precedence structure). Reuses
/// known->lp1_all_half when it was solved for (inst, opt).
LowerBound lower_bound_independent(const core::Instance& inst,
                                   const rounding::Lp1Options& opt = {},
                                   const Relaxations* known = nullptr);

/// Lemma 1 + Lemma 5 bounds for an instance with the given disjoint chains.
/// Reuses known->lp2 when it was solved for `inst` and known->lp2_chains
/// equals `chains`, whatever `opt` says.
LowerBound lower_bound_chains(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains,
                              const rounding::Lp1Options& opt = {},
                              const Relaxations* known = nullptr);

}  // namespace suu::algos
