#include "stoch/stc_i.hpp"

#include <algorithm>
#include <cmath>

#include "stoch/lawler_labetoulle.hpp"
#include "stoch/rcmax.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace suu::stoch {

int stc_round_bound(int n) {
  const double nn = std::max(2, n);
  const double loglog = std::log2(std::max(1.0, std::log2(nn)));
  return static_cast<int>(std::ceil(loglog - 1e-12)) + 3;
}

namespace {

/// Executes `sched` (built over `jobs` with positions matching `jobs`)
/// against partially-done work; returns the in-round time at which the last
/// tracked job completed (or the full makespan if some are left). Updates
/// `work` and `done`.
double play_schedule(const StochInstance& inst,
                     const PreemptiveSchedule& sched,
                     const std::vector<int>& jobs,
                     const std::vector<double>& p, std::vector<double>& work,
                     std::vector<char>& done) {
  double t = 0.0;
  double last_completion = 0.0;
  int remaining = 0;
  for (const int j : jobs) {
    if (!done[static_cast<std::size_t>(j)]) ++remaining;
  }
  for (const Slice& s : sched.slices) {
    if (remaining == 0) break;
    for (int i = 0; i < inst.num_machines(); ++i) {
      const int idx = s.job_of_machine[static_cast<std::size_t>(i)];
      if (idx < 0) continue;
      const int j = jobs[static_cast<std::size_t>(idx)];
      if (done[static_cast<std::size_t>(j)]) continue;
      const double v = inst.speed(i, j);
      if (v <= 0) continue;
      const double need = p[static_cast<std::size_t>(j)] -
                          work[static_cast<std::size_t>(j)];
      const double delivered = s.duration * v;
      if (delivered >= need - 1e-15) {
        done[static_cast<std::size_t>(j)] = 1;
        work[static_cast<std::size_t>(j)] = p[static_cast<std::size_t>(j)];
        last_completion = t + need / v;
        --remaining;
      } else {
        work[static_cast<std::size_t>(j)] += delivered;
      }
    }
    t += s.duration;
  }
  return remaining == 0 ? last_completion : t;
}

}  // namespace

StcIResult run_stc_i(const StochInstance& inst, util::Rng& rng) {
  const int n = inst.num_jobs();
  std::vector<double> p(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) p[static_cast<std::size_t>(j)] =
      rng.exponential(inst.lambda(j));

  StcIResult res;
  {
    // Offline optimum for this realization.
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) all[static_cast<std::size_t>(j)] = j;
    res.offline_opt = rpmtn_makespan(inst, all, p);
  }

  std::vector<double> work(static_cast<std::size_t>(n), 0.0);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  const int K = stc_round_bound(n);
  double t = 0.0;

  for (int k = 1; k <= K; ++k) {
    std::vector<int> rem;
    for (int j = 0; j < n; ++j) {
      if (!done[static_cast<std::size_t>(j)]) rem.push_back(j);
    }
    if (rem.empty()) break;
    res.rounds_used = k;
    // Deterministic targets 2^(k-2)/lambda_j, net of work already done.
    std::vector<double> target(rem.size());
    for (std::size_t idx = 0; idx < rem.size(); ++idx) {
      const int j = rem[idx];
      target[idx] =
          std::max(0.0, std::ldexp(1.0, k - 2) / inst.lambda(j) -
                            work[static_cast<std::size_t>(j)]);
    }
    const PreemptiveSchedule sched = solve_rpmtn(inst, rem, target);
    const double used = play_schedule(inst, sched, rem, p, work, done);
    bool all_done = true;
    for (int j = 0; j < n; ++j) {
      if (!done[static_cast<std::size_t>(j)]) all_done = false;
    }
    t += all_done ? used : sched.makespan;
    if (all_done) {
      res.makespan = t;
      return res;
    }
  }

  // Sequential tail: fastest machine per survivor.
  res.sequential_tail = false;
  for (int j = 0; j < n; ++j) {
    if (done[static_cast<std::size_t>(j)]) continue;
    res.sequential_tail = true;
    const double v = inst.max_speed(j);
    t += (p[static_cast<std::size_t>(j)] - work[static_cast<std::size_t>(j)]) /
         v;
    done[static_cast<std::size_t>(j)] = 1;
  }
  res.makespan = t;
  return res;
}

StcIResult run_stc_r(const StochInstance& inst, util::Rng& rng) {
  const int n = inst.num_jobs();
  std::vector<double> p(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    p[static_cast<std::size_t>(j)] = rng.exponential(inst.lambda(j));
  }

  StcIResult res;
  {
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) all[static_cast<std::size_t>(j)] = j;
    res.offline_opt = rpmtn_makespan(inst, all, p);
  }

  std::vector<char> done(static_cast<std::size_t>(n), 0);
  const int K = stc_round_bound(n);
  double t = 0.0;

  for (int k = 1; k <= K; ++k) {
    std::vector<int> rem;
    for (int j = 0; j < n; ++j) {
      if (!done[static_cast<std::size_t>(j)]) rem.push_back(j);
    }
    if (rem.empty()) break;
    res.rounds_used = k;
    std::vector<double> target(rem.size());
    for (std::size_t idx = 0; idx < rem.size(); ++idx) {
      target[idx] = std::ldexp(1.0, k - 2) / inst.lambda(rem[idx]);
    }
    const NonpreemptiveSchedule sched = greedy_rcmax(inst, rem, target);
    // Execute machine queues in parallel. A job completes within its slot
    // iff its hidden length fits the allotment (p_j <= target); otherwise
    // its progress is discarded (restart semantics).
    double round_last_completion = 0.0;
    bool all_done = true;
    for (int i = 0; i < inst.num_machines(); ++i) {
      double mt = 0.0;
      for (const int idx : sched.queue[static_cast<std::size_t>(i)]) {
        const int j = rem[static_cast<std::size_t>(idx)];
        const double v = inst.speed(i, j);
        if (p[static_cast<std::size_t>(j)] <=
            target[static_cast<std::size_t>(idx)] + 1e-15) {
          mt += p[static_cast<std::size_t>(j)] / v;
          done[static_cast<std::size_t>(j)] = 1;
          round_last_completion = std::max(round_last_completion, mt);
        } else {
          mt += target[static_cast<std::size_t>(idx)] / v;  // wasted slot
          all_done = false;
        }
      }
    }
    t += all_done ? round_last_completion : sched.makespan;
    if (all_done) {
      bool every = true;
      for (int j = 0; j < n; ++j) {
        if (!done[static_cast<std::size_t>(j)]) every = false;
      }
      if (every) {
        res.makespan = t;
        return res;
      }
    }
  }

  for (int j = 0; j < n; ++j) {
    if (done[static_cast<std::size_t>(j)]) continue;
    res.sequential_tail = true;
    t += p[static_cast<std::size_t>(j)] / inst.max_speed(j);
  }
  res.makespan = t;
  return res;
}

double run_sequential_fastest(const StochInstance& inst, util::Rng& rng) {
  double t = 0.0;
  for (int j = 0; j < inst.num_jobs(); ++j) {
    t += rng.exponential(inst.lambda(j)) / inst.max_speed(j);
  }
  return t;
}

StochEstimate estimate_stoch(const StochInstance& inst, int replications,
                             std::uint64_t seed, unsigned threads) {
  SUU_CHECK(replications >= 1);
  struct Row {
    double mk, rk, off, seq;
    int rounds;
    bool tail;
  };
  std::vector<Row> rows(static_cast<std::size_t>(replications));
  util::Rng master(seed);
  auto one = [&](std::size_t r) {
    util::Rng rng = master.child(r + 1);
    const StcIResult res = run_stc_i(inst, rng);
    util::Rng rng2 = master.child(r + 1);  // same draws for the baseline
    const double seq = run_sequential_fastest(inst, rng2);
    util::Rng rng3 = master.child(r + 1);  // same draws for the variant
    const StcIResult resr = run_stc_r(inst, rng3);
    rows[r] = Row{res.makespan, resr.makespan, res.offline_opt, seq,
                  res.rounds_used, res.sequential_tail};
  };
  if (threads == 1) {
    for (std::size_t r = 0; r < rows.size(); ++r) one(r);
  } else if (threads == 0) {
    util::default_pool().parallel_for(rows.size(), one);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(rows.size(), one);
  }

  util::OnlineStats mk, rk, off, seq;
  double rounds = 0.0, tails = 0.0;
  for (const Row& r : rows) {
    mk.add(r.mk);
    rk.add(r.rk);
    off.add(r.off);
    seq.add(r.seq);
    rounds += r.rounds;
    tails += r.tail ? 1.0 : 0.0;
  }
  StochEstimate est;
  est.stc_i = util::make_estimate(mk);
  est.stc_r = util::make_estimate(rk);
  est.offline = util::make_estimate(off);
  est.sequential = util::make_estimate(seq);
  est.mean_rounds = rounds / static_cast<double>(replications);
  est.tail_fraction = tails / static_cast<double>(replications);
  return est;
}

}  // namespace suu::stoch
