// SUU-C: the paper's Section 4 algorithm for chain precedence constraints.
//
// Pipeline implemented here, mirroring the paper step by step:
//   1. Solve LP2 and round it (Lemma 6) to an integral assignment {x_ij}
//      with per-job lengths d_j, machine loads O(t*) and chain lengths
//      O(t*).
//   2. Per chain: the adaptive schedule Sigma_k runs the frontier job's
//      assignment obliviously for d_j supersteps (machine i covers the
//      first x_ij of them) and repeats failed attempts.
//   3. The chain schedules run "in parallel" as a pseudoschedule over
//      supersteps; each chain's start is delayed by delta_k ~ U{0..H}
//      (Theorem 7) to keep congestion O(log(n+m)/log log(n+m)) whp.
//   4. Each superstep is flattened into c(t) real timesteps (its
//      congestion): machine i serves its per-superstep job list one job per
//      real step.
//   5. Long jobs (d_j > gamma = t*/log(n+m)) are replaced by a pause of
//      gamma supersteps and batch-executed by SUU-I-SEM at the end of the
//      segment (of gamma supersteps) in which their pause started, with all
//      chains suspended.
//   6. If the superstep budget is blown (load/length/congestion beyond the
//      whp bounds — probability <= 1/n), fall back to the trivial
//      O(n)-approximation, as the paper prescribes.
//   7. Optionally, assignments are pre-rounded onto a grid of
//      t*/(nm)-multiples with dedicated reinserted steps (the paper's trick
//      for non-polynomial t*; a no-op at benchable scales).
//
// Theorem 9: expected makespan O(E[T_OPT] log(n+m) log log(min{m,n})).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "algos/suu_i.hpp"
#include "rounding/lp2.hpp"
#include "sim/engine.hpp"

namespace suu::algos {

class SuuCPolicy : public sim::Policy {
 public:
  struct Config {
    rounding::Lp1Options lp1;  ///< for the embedded SUU-I-SEM batches
    /// Explicit chains (used by SUU-T blocks); empty = derive from the dag.
    std::vector<std::vector<int>> chains;
    /// Optional shared LP2 solution (must match the instance and chains);
    /// lets Monte-Carlo replications skip the deterministic solve+round.
    std::shared_ptr<const rounding::Lp2Result> lp2;
    bool random_delays = true;   ///< Theorem 7 ablation switch
    bool grid_rounding = false;  ///< non-polynomial-t* trick
    double gamma_factor = 1.0;   ///< scales gamma = t*/log2(n+m)
    double fallback_factor = 64.0;  ///< superstep budget multiplier
  };

  SuuCPolicy() : SuuCPolicy(Config{}) {}
  explicit SuuCPolicy(Config cfg);

  /// Solve LP2 + Lemma 6 once for sharing across replications.
  static std::shared_ptr<const rounding::Lp2Result> precompute(
      const core::Instance& inst,
      const std::vector<std::vector<int>>& chains);
  std::string name() const override { return "suu-c"; }
  void reset(const core::Instance& inst, util::Rng rng) override;
  sched::Assignment decide(const sim::ExecState& state) override;

  // Diagnostics for the current/last execution.
  std::int64_t supersteps() const noexcept { return ss_; }
  int max_congestion() const noexcept { return max_congestion_; }
  int batches_run() const noexcept { return batches_; }
  bool fell_back() const noexcept { return fallback_; }
  std::int64_t gamma() const noexcept { return gamma_; }
  std::int64_t assignment_load() const noexcept { return load_; }

 private:
  enum class Phase { Delay, Enter, Attempt, Pause, WaitBatch, Done };

  struct ChainState {
    std::vector<int> jobs;
    std::size_t pos = 0;
    Phase phase = Phase::Delay;
    std::int64_t delay_left = 0;
    std::int64_t attempt_step = 0;
    std::int64_t pause_left = 0;
  };

  // Per-job attempt plan: primary (grid-rounded) machine steps followed by
  // dedicated deficit steps (grid reinsertion). attempt_len = len_a + len_b.
  struct AttemptPlan {
    std::vector<std::pair<int, std::int64_t>> primary;
    std::vector<std::pair<int, std::int64_t>> deficit;
    std::int64_t len_a = 0;
    std::int64_t len_b = 0;
    std::int64_t length() const noexcept { return len_a + len_b; }
  };

  void settle_chain(ChainState& cs, const sim::ExecState& state);
  void build_superstep(const sim::ExecState& state);
  void tick_superstep();
  sched::Assignment fallback_assignment(const sim::ExecState& state) const;

  Config cfg_;
  const core::Instance* inst_ = nullptr;
  util::Rng rng_{0};
  std::vector<AttemptPlan> plan_;  // per job (only chain jobs populated)
  std::vector<char> in_universe_;  // jobs this policy owns
  std::int64_t gamma_ = 1;
  std::int64_t load_ = 0;  // H: max machine load of the assignment
  std::vector<ChainState> chains_;

  // Superstep emission.
  std::vector<std::vector<int>> lists_;  // per machine
  int emit_r_ = 0;
  int emit_c_ = 0;
  bool superstep_open_ = false;
  std::int64_t ss_ = 0;
  std::int64_t ss_budget_ = 0;

  // Long-job batches.
  std::vector<int> pending_long_;
  std::unique_ptr<SuuISemPolicy> batch_;
  std::vector<int> batch_jobs_;
  std::uint64_t batch_seq_ = 0;
  int batches_ = 0;

  bool fallback_ = false;
  int max_congestion_ = 0;
};

}  // namespace suu::algos
