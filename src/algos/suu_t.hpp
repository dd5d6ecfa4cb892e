// SUU-T: directed-forest precedence constraints (paper Appendix B).
//
// Decompose the forest into O(log n) blocks of disjoint chains (heavy-path
// decomposition, src/chains) and run SUU-C on each block in order; a block
// starts only after the previous block fully completes, which together with
// the decomposition invariants preserves every precedence edge. Theorem 12:
// O(E[T_OPT] log(n) log(n+m) log log(min{m,n})) expected makespan.
#pragma once

#include <memory>

#include "algos/suu_c.hpp"
#include "chains/decomposition.hpp"
#include "sim/engine.hpp"

namespace suu::algos {

class SuuTPolicy : public sim::Policy {
 public:
  /// Deterministic per-instance work (decomposition + per-block LP2),
  /// shareable across Monte-Carlo replications.
  struct BlockCache {
    chains::Decomposition decomp;
    std::vector<std::shared_ptr<const rounding::Lp2Result>> lp2;
  };

  explicit SuuTPolicy(SuuCPolicy::Config cfg = {});
  SuuTPolicy(SuuCPolicy::Config cfg,
             std::shared_ptr<const BlockCache> cache);
  std::string name() const override { return "suu-t"; }
  void reset(const core::Instance& inst, util::Rng rng) override;
  sched::Assignment decide(const sim::ExecState& state) override;

  /// Deterministic per-instance work: heavy-path decomposition plus one
  /// LP2 solve+round per block.
  static std::shared_ptr<const BlockCache> precompute(
      const core::Instance& inst);

  int num_blocks() const noexcept { return decomp_.num_blocks(); }
  int current_block() const noexcept { return block_; }

 private:
  void activate_block(int b);
  bool block_done(const sim::ExecState& state) const;

  SuuCPolicy::Config cfg_;
  std::shared_ptr<const BlockCache> cache_;
  const core::Instance* inst_ = nullptr;
  util::Rng rng_{0};
  chains::Decomposition decomp_;
  int block_ = 0;
  std::unique_ptr<SuuCPolicy> sub_;
  std::vector<int> block_jobs_;
};

}  // namespace suu::algos
