#include "algos/suu_c.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace suu::algos {

SuuCPolicy::SuuCPolicy(Config cfg) : cfg_(std::move(cfg)) {}

std::shared_ptr<const rounding::Lp2Result> SuuCPolicy::precompute(
    const core::Instance& inst,
    const std::vector<std::vector<int>>& chains) {
  return std::make_shared<const rounding::Lp2Result>(
      rounding::solve_and_round_lp2(inst, chains));
}

void SuuCPolicy::reset(const core::Instance& inst, util::Rng rng) {
  inst_ = &inst;
  rng_ = rng;

  std::vector<std::vector<int>> chain_list =
      cfg_.chains.empty() ? inst.dag().chains() : cfg_.chains;
  SUU_CHECK_MSG(!chain_list.empty(), "SUU-C needs at least one chain");

  // ---- Step 1: LP2 + Lemma 6 rounding (shared across replications when
  // the caller precomputed it).
  std::shared_ptr<const rounding::Lp2Result> lp2_ptr = cfg_.lp2;
  if (!lp2_ptr) lp2_ptr = precompute(inst, chain_list);
  const rounding::Lp2Result& lp2 = *lp2_ptr;
  SUU_CHECK_MSG(lp2.assignment.num_jobs() == inst.num_jobs() &&
                    lp2.assignment.num_machines() == inst.num_machines(),
                "shared LP2 result does not match the instance");
  load_ = std::max<std::int64_t>(1, lp2.assignment.max_load());

  // ---- Step 7 (optional): grid rounding of assignments to multiples of
  // t*/(nm), with deficits reinserted as dedicated steps.
  const auto nm = static_cast<std::int64_t>(inst.num_jobs()) *
                  inst.num_machines();
  const std::int64_t grid =
      cfg_.grid_rounding ? std::max<std::int64_t>(1, load_ / nm) : 1;

  plan_.assign(static_cast<std::size_t>(inst.num_jobs()), AttemptPlan{});
  in_universe_.assign(static_cast<std::size_t>(inst.num_jobs()), 0);
  for (const auto& chain : chain_list) {
    for (const int j : chain) {
      in_universe_[static_cast<std::size_t>(j)] = 1;
      AttemptPlan& ap = plan_[static_cast<std::size_t>(j)];
      for (const auto& [i, steps] : lp2.assignment.steps_for(j)) {
        const std::int64_t lo = (steps / grid) * grid;
        if (lo > 0) {
          ap.primary.emplace_back(i, lo);
          ap.len_a = std::max(ap.len_a, lo);
        }
        if (steps - lo > 0) {
          ap.deficit.emplace_back(i, steps - lo);
          ap.len_b = std::max(ap.len_b, steps - lo);
        }
      }
      if (ap.length() == 0) {
        // Rounded assignment must have had >= 1 step; keep a 1-step attempt
        // on the best machine as a guard.
        int best = 0;
        for (int i = 1; i < inst.num_machines(); ++i) {
          if (inst.ell(i, j) > inst.ell(best, j)) best = i;
        }
        ap.primary.emplace_back(best, 1);
        ap.len_a = 1;
      }
    }
  }

  // ---- gamma, superstep budget, random delays.
  std::int64_t max_chain_len = 0;
  for (const auto& chain : chain_list) {
    std::int64_t len = 0;
    for (const int j : chain) len += plan_[static_cast<std::size_t>(j)].length();
    max_chain_len = std::max(max_chain_len, len);
  }
  const double log_nm = std::max(
      2.0, std::log2(static_cast<double>(inst.num_jobs() +
                                         inst.num_machines())));
  const double t_hat =
      std::max(static_cast<double>(load_), static_cast<double>(max_chain_len));
  gamma_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(cfg_.gamma_factor * t_hat / log_nm)));
  ss_budget_ = static_cast<std::int64_t>(
      cfg_.fallback_factor *
      static_cast<double>(load_ + 2 * max_chain_len + 4 * gamma_ + 64));

  chains_.clear();
  chains_.reserve(chain_list.size());
  for (auto& chain : chain_list) {
    ChainState cs;
    cs.jobs = std::move(chain);
    cs.delay_left =
        cfg_.random_delays
            ? static_cast<std::int64_t>(rng_.uniform_below(
                  static_cast<std::uint64_t>(load_) + 1))
            : 0;
    cs.phase = Phase::Delay;
    chains_.push_back(std::move(cs));
  }

  lists_.assign(static_cast<std::size_t>(inst.num_machines()), {});
  emit_r_ = emit_c_ = 0;
  superstep_open_ = false;
  ss_ = 0;
  pending_long_.clear();
  batch_.reset();
  batch_jobs_.clear();
  batch_seq_ = 0;
  batches_ = 0;
  fallback_ = false;
  max_congestion_ = 0;
}

void SuuCPolicy::settle_chain(ChainState& cs, const sim::ExecState& state) {
  for (;;) {
    switch (cs.phase) {
      case Phase::Delay:
        if (cs.delay_left > 0) return;
        cs.phase = Phase::Enter;
        break;
      case Phase::Enter: {
        if (cs.pos >= cs.jobs.size()) {
          cs.phase = Phase::Done;
          return;
        }
        const int j = cs.jobs[cs.pos];
        if (state.completed(j)) {
          ++cs.pos;
          break;
        }
        if (plan_[static_cast<std::size_t>(j)].length() > gamma_) {
          cs.phase = Phase::Pause;
          cs.pause_left = gamma_;
          pending_long_.push_back(j);
        } else {
          cs.phase = Phase::Attempt;
          cs.attempt_step = 0;
        }
        return;
      }
      case Phase::Attempt: {
        const int j = cs.jobs[cs.pos];
        if (cs.attempt_step >=
            plan_[static_cast<std::size_t>(j)].length()) {
          if (state.completed(j)) {
            ++cs.pos;
            cs.phase = Phase::Enter;
            break;
          }
          cs.attempt_step = 0;  // failed attempt: repeat
        }
        return;
      }
      case Phase::Pause:
        if (cs.pause_left > 0) return;
        cs.phase = Phase::WaitBatch;
        break;
      case Phase::WaitBatch: {
        const int j = cs.jobs[cs.pos];
        if (state.completed(j)) {
          ++cs.pos;
          cs.phase = Phase::Enter;
          break;
        }
        return;
      }
      case Phase::Done:
        return;
    }
  }
}

void SuuCPolicy::build_superstep(const sim::ExecState& state) {
  for (auto& l : lists_) l.clear();
  for (auto& cs : chains_) {
    settle_chain(cs, state);
    if (cs.phase != Phase::Attempt) continue;
    const int j = cs.jobs[cs.pos];
    const AttemptPlan& ap = plan_[static_cast<std::size_t>(j)];
    if (cs.attempt_step < ap.len_a) {
      for (const auto& [i, steps] : ap.primary) {
        if (cs.attempt_step < steps) {
          lists_[static_cast<std::size_t>(i)].push_back(j);
        }
      }
    } else {
      const std::int64_t s = cs.attempt_step - ap.len_a;
      for (const auto& [i, steps] : ap.deficit) {
        if (s < steps) lists_[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
  int c = 0;
  for (const auto& l : lists_) c = std::max(c, static_cast<int>(l.size()));
  emit_c_ = c;
  emit_r_ = 0;
  superstep_open_ = true;
  max_congestion_ = std::max(max_congestion_, c);
}

void SuuCPolicy::tick_superstep() {
  ++ss_;
  for (auto& cs : chains_) {
    switch (cs.phase) {
      case Phase::Delay:
        --cs.delay_left;
        break;
      case Phase::Attempt:
        ++cs.attempt_step;
        break;
      case Phase::Pause:
        --cs.pause_left;
        break;
      default:
        break;
    }
  }
  // Segment boundary: batch the long jobs whose pause started during the
  // segment that just ended.
  if (ss_ % gamma_ == 0 && !pending_long_.empty()) {
    batch_jobs_ = std::move(pending_long_);
    pending_long_.clear();
    SuuISemPolicy::Config cfg;
    cfg.lp1 = cfg_.lp1;
    cfg.universe = batch_jobs_;
    batch_ = std::make_unique<SuuISemPolicy>(std::move(cfg));
    batch_->reset(*inst_, rng_.child(++batch_seq_));
    ++batches_;
  }
}

sched::Assignment SuuCPolicy::fallback_assignment(
    const sim::ExecState& state) const {
  sched::Assignment a(
      static_cast<std::size_t>(inst_->num_machines()), sched::kIdle);
  for (int j = 0; j < inst_->num_jobs(); ++j) {
    if (in_universe_[static_cast<std::size_t>(j)] && state.eligible(j)) {
      std::fill(a.begin(), a.end(), j);
      break;
    }
  }
  return a;
}

sched::Assignment SuuCPolicy::decide(const sim::ExecState& state) {
  // Each loop iteration either emits an assignment or makes provable
  // progress (a superstep ticks or a batch starts/ends); the guard bound is
  // generous.
  const std::int64_t guard_cap = 4 * ss_budget_ + 1'000'000;
  for (std::int64_t guard = 0; guard < guard_cap; ++guard) {
    if (fallback_) return fallback_assignment(state);

    if (batch_) {
      bool done = true;
      for (const int j : batch_jobs_) {
        if (!state.completed(j)) {
          done = false;
          break;
        }
      }
      if (!done) return batch_->decide(state);
      batch_.reset();
      batch_jobs_.clear();
      continue;
    }

    if (superstep_open_) {
      if (emit_r_ < emit_c_) {
        sched::Assignment a(
            static_cast<std::size_t>(inst_->num_machines()), sched::kIdle);
        for (std::size_t i = 0; i < lists_.size(); ++i) {
          if (static_cast<std::size_t>(emit_r_) < lists_[i].size()) {
            a[i] = lists_[i][static_cast<std::size_t>(emit_r_)];
          }
        }
        ++emit_r_;
        return a;
      }
      superstep_open_ = false;
      tick_superstep();
      continue;
    }

    if (ss_ >= ss_budget_) {
      fallback_ = true;
      continue;
    }

    build_superstep(state);
    if (emit_c_ == 0) {
      // Empty superstep (all chains delayed/paused/waiting): consume it
      // without real timesteps.
      superstep_open_ = false;
      tick_superstep();
    }
  }
  SUU_CHECK_MSG(false, "SUU-C made no progress within its guard bound");
  return {};
}

}  // namespace suu::algos
