// Synthetic SUU instance families.
//
// The paper has no systems evaluation, so these generators define the
// workloads for every experiment. Each family exercises a
// regime the theory distinguishes:
//   * Uniform       — generic unrelated machines, q_ij ~ U[lo, hi].
//   * Classes       — volunteer-computing style: a few reliable machines,
//                     many flaky ones (SETI@home motivation, paper §1).
//   * Sparse        — each job runnable only on a random subset (q = 1
//                     elsewhere), stressing the LP/flow machinery.
//   * Identical     — all q_ij equal; the coupon-collector family on which
//                     oblivious repetition provably pays a Theta(log n)
//                     factor while SUU-I-SEM pays Theta(log log n).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "util/rng.hpp"

namespace suu::core {

struct MachineModel {
  enum class Kind { Uniform, Classes, Sparse, Identical };
  Kind kind = Kind::Uniform;

  // Uniform / Sparse (capable pairs):
  double q_lo = 0.3;
  double q_hi = 0.9;

  // Classes:
  double frac_fast = 0.2;   ///< fraction of reliable machines
  double fast_lo = 0.05;    ///< q range of reliable machines
  double fast_hi = 0.3;
  double slow_lo = 0.7;     ///< q range of flaky machines
  double slow_hi = 0.98;

  // Sparse:
  double capable_frac = 0.4;  ///< expected fraction of machines per job

  // Identical:
  double q_ident = 0.5;

  static MachineModel uniform(double lo, double hi);
  static MachineModel classes();
  static MachineModel sparse(double frac, double lo, double hi);
  static MachineModel identical(double q);
};

/// Failure matrix (row-major by job) for n jobs on m machines.
std::vector<double> gen_q(int n, int m, const MachineModel& model,
                          util::Rng& rng);

/// Independent-jobs instance (SUU-I).
Instance make_independent(int n, int m, const MachineModel& model,
                          util::Rng& rng);

/// Disjoint-chains instance (SUU-C): `n_chains` chains with lengths drawn
/// uniformly from [len_lo, len_hi].
Instance make_chains(int n_chains, int len_lo, int len_hi, int m,
                     const MachineModel& model, util::Rng& rng);

/// Chain DAG with the given chain lengths (jobs numbered consecutively).
Dag make_chain_dag(const std::vector<int>& lengths);

/// Random out-forest (every vertex has at most one predecessor): each new
/// vertex becomes a root with probability root_prob, otherwise it attaches
/// below a uniformly random earlier vertex with fewer than max_children
/// children.
Instance make_out_forest(int n, int m, double root_prob, int max_children,
                         const MachineModel& model, util::Rng& rng);

/// Random in-forest: the reverse of an out-forest.
Instance make_in_forest(int n, int m, double root_prob, int max_children,
                        const MachineModel& model, util::Rng& rng);

}  // namespace suu::core
