#include "algos/suu_t.hpp"

#include "util/check.hpp"

namespace suu::algos {

SuuTPolicy::SuuTPolicy(SuuCPolicy::Config cfg) : cfg_(std::move(cfg)) {}

SuuTPolicy::SuuTPolicy(SuuCPolicy::Config cfg,
                       std::shared_ptr<const BlockCache> cache)
    : cfg_(std::move(cfg)), cache_(std::move(cache)) {}

std::shared_ptr<const SuuTPolicy::BlockCache> SuuTPolicy::precompute(
    const core::Instance& inst) {
  auto cache = std::make_shared<BlockCache>();
  cache->decomp = chains::decompose_forest(inst.dag());
  for (const auto& block : cache->decomp.blocks) {
    cache->lp2.push_back(SuuCPolicy::precompute(inst, block));
  }
  return cache;
}

void SuuTPolicy::reset(const core::Instance& inst, util::Rng rng) {
  inst_ = &inst;
  rng_ = rng;
  decomp_ = cache_ ? cache_->decomp : chains::decompose_forest(inst.dag());
  SUU_CHECK_MSG(decomp_.num_blocks() > 0, "empty decomposition");
  block_ = 0;
  activate_block(0);
}

void SuuTPolicy::activate_block(int b) {
  SuuCPolicy::Config cfg = cfg_;
  cfg.chains = decomp_.blocks[static_cast<std::size_t>(b)];
  if (cache_) cfg.lp2 = cache_->lp2[static_cast<std::size_t>(b)];
  block_jobs_.clear();
  for (const auto& chain : cfg.chains) {
    block_jobs_.insert(block_jobs_.end(), chain.begin(), chain.end());
  }
  sub_ = std::make_unique<SuuCPolicy>(std::move(cfg));
  sub_->reset(*inst_, rng_.child(static_cast<std::uint64_t>(b) + 1));
}

bool SuuTPolicy::block_done(const sim::ExecState& state) const {
  for (const int j : block_jobs_) {
    if (!state.completed(j)) return false;
  }
  return true;
}

sched::Assignment SuuTPolicy::decide(const sim::ExecState& state) {
  while (block_done(state)) {
    if (block_ + 1 >= decomp_.num_blocks()) {
      // Everything this policy owns is finished; the engine will stop on
      // its own once all jobs complete.
      return sched::Assignment(
          static_cast<std::size_t>(inst_->num_machines()), sched::kIdle);
    }
    activate_block(++block_);
  }
  return sub_->decide(state);
}

}  // namespace suu::algos
