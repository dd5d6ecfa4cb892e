#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "lp/problem.hpp"
#include "lp_tableau_oracle.hpp"
#include "stoch/bvn.hpp"
#include "stoch/instance.hpp"
#include "stoch/lawler_labetoulle.hpp"
#include "stoch/stc_i.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace suu::stoch {
namespace {

StochInstance random_instance(util::Rng& rng, int n, int m) {
  std::vector<double> lambda(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n) * m);
  for (auto& l : lambda) l = 0.5 + rng.uniform01() * 2.0;
  for (auto& s : v) s = rng.bernoulli(0.8) ? 0.2 + rng.uniform01() : 0.0;
  // Guarantee a positive speed per job.
  for (int j = 0; j < n; ++j) {
    bool any = false;
    for (int i = 0; i < m; ++i) {
      if (v[static_cast<std::size_t>(j) * m + i] > 0) any = true;
    }
    if (!any) v[static_cast<std::size_t>(j) * m] = 1.0;
  }
  return StochInstance(n, m, std::move(lambda), std::move(v));
}

TEST(StochInstance, Validation) {
  EXPECT_THROW(StochInstance(1, 1, {0.0}, {1.0}), util::CheckError);
  EXPECT_THROW(StochInstance(1, 1, {1.0}, {0.0}), util::CheckError);
  EXPECT_THROW(StochInstance(1, 1, {1.0}, {-1.0}), util::CheckError);
  const StochInstance ok(1, 2, {1.0}, {0.0, 2.0});
  EXPECT_EQ(ok.fastest_machine(0), 1);
  EXPECT_DOUBLE_EQ(ok.max_speed(0), 2.0);
}

TEST(Bvn, IdentityMatrix) {
  // 2 machines, 2 jobs, x = diag(3, 3), C = 3: a single slice suffices.
  const std::vector<double> x = {3.0, 0.0, 0.0, 3.0};
  const auto slices = decompose_preemptive(2, 2, x, 3.0);
  double total = 0;
  for (const auto& s : slices) total += s.duration;
  EXPECT_NEAR(total, 3.0, 1e-9);
}

TEST(Bvn, ZeroHorizon) {
  EXPECT_TRUE(decompose_preemptive(1, 1, {0.0}, 0.0).empty());
}

TEST(Bvn, RejectsOverloadedRows) {
  EXPECT_THROW(decompose_preemptive(1, 2, {2.0, 2.0}, 3.0),
               util::CheckError);
}

void check_decomposition_properties(int m, int n,
                                    const std::vector<double>& x, double C) {
  const auto slices = decompose_preemptive(m, n, x, C);
  // 1. Total duration C; 2. no job on two machines in a slice (by
  // construction of job_of_machine we check duplicates); 3. delivered time
  // per (i, j) == x exactly.
  std::vector<double> delivered(static_cast<std::size_t>(m) *
                                    static_cast<std::size_t>(n),
                                0.0);
  double total = 0;
  for (const auto& s : slices) {
    EXPECT_GT(s.duration, 0.0);
    total += s.duration;
    std::vector<char> used(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < m; ++i) {
      const int j = s.job_of_machine[static_cast<std::size_t>(i)];
      if (j < 0) continue;
      EXPECT_FALSE(used[static_cast<std::size_t>(j)])
          << "job " << j << " on two machines";
      used[static_cast<std::size_t>(j)] = 1;
      delivered[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(j)] += s.duration;
    }
  }
  EXPECT_NEAR(total, C, 1e-6 * (1 + C));
  for (std::size_t k = 0; k < delivered.size(); ++k) {
    EXPECT_NEAR(delivered[k], x[k], 1e-6 * (1 + C)) << "entry " << k;
  }
}

class BvnRandom : public ::testing::TestWithParam<int> {};

TEST_P(BvnRandom, ExactRealization) {
  util::Rng rng(4000 + GetParam());
  const int m = 1 + static_cast<int>(rng.uniform_below(4));
  const int n = 1 + static_cast<int>(rng.uniform_below(5));
  std::vector<double> x(static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n),
                        0.0);
  for (auto& v : x) v = rng.bernoulli(0.7) ? rng.uniform01() * 3 : 0.0;
  double C = 0;
  for (int i = 0; i < m; ++i) {
    double r = 0;
    for (int j = 0; j < n; ++j) {
      r += x[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(j)];
    }
    C = std::max(C, r);
  }
  for (int j = 0; j < n; ++j) {
    double c = 0;
    for (int i = 0; i < m; ++i) {
      c += x[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(j)];
    }
    C = std::max(C, c);
  }
  C += 0.1;  // strict slack
  check_decomposition_properties(m, n, x, C);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BvnRandom, ::testing::Range(0, 15));

TEST(LawlerLabetoulle, SingleJobClosedForm) {
  // p = 6, speeds {2, 3}: no-parallelism makes C* = p / vmax = 2.
  const StochInstance inst(1, 2, {1.0}, {2.0, 3.0});
  const PreemptiveSchedule s = solve_rpmtn(inst, {0}, {6.0});
  EXPECT_NEAR(s.makespan, 2.0, 1e-6);
}

TEST(LawlerLabetoulle, TwoJobsShareTwoMachines) {
  // Symmetric: 2 jobs, 2 unit-speed machines, p = 4 each: C* = 4.
  const StochInstance inst(2, 2, {1.0, 1.0}, {1.0, 1.0, 1.0, 1.0});
  const PreemptiveSchedule s = solve_rpmtn(inst, {0, 1}, {4.0, 4.0});
  EXPECT_NEAR(s.makespan, 4.0, 1e-6);
}

TEST(LawlerLabetoulle, PreemptionBeatsNonpreemptive) {
  // Jobs prefer different machines; LP splits work across machines.
  const StochInstance inst(2, 2, {1.0, 1.0}, {2.0, 1.0, 2.0, 1.0});
  // Both jobs fast on machine 0. p = 4 each. Nonpreemptive on machine 0:
  // 4; LL can use machine 1 in parallel: C < 4.
  const PreemptiveSchedule s = solve_rpmtn(inst, {0, 1}, {4.0, 4.0});
  EXPECT_LT(s.makespan, 4.0 - 0.1);
  EXPECT_GE(s.makespan, 2.0 - 1e-6);  // total work 8, total speed <= 4...
}

TEST(LawlerLabetoulle, SlicesRealizeWork) {
  util::Rng rng(31);
  const StochInstance inst = random_instance(rng, 4, 3);
  std::vector<double> p = {1.0, 2.0, 0.5, 1.5};
  const PreemptiveSchedule s = solve_rpmtn(inst, {0, 1, 2, 3}, p);
  // Work delivered per job must reach p_j.
  std::vector<double> work(4, 0.0);
  for (const auto& slice : s.slices) {
    for (int i = 0; i < 3; ++i) {
      const int idx = slice.job_of_machine[static_cast<std::size_t>(i)];
      if (idx >= 0) {
        work[static_cast<std::size_t>(idx)] +=
            slice.duration * inst.speed(i, idx >= 0 ? idx : 0);
      }
    }
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_GE(work[static_cast<std::size_t>(j)],
              p[static_cast<std::size_t>(j)] - 1e-5)
        << "job " << j;
  }
}

// bench_fig_stoch's instance shape: rates in [0.4, 2], each (job, machine)
// pair capable with probability 0.8 at speed in [0.2, 1.2], every job with
// at least one capable machine.
StochInstance cluster_instance(util::Rng& rng, int n, int m) {
  std::vector<double> lambda(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n) * m, 0.0);
  for (auto& l : lambda) l = 0.4 + rng.uniform01() * 1.6;
  for (int j = 0; j < n; ++j) {
    bool any = false;
    for (int i = 0; i < m; ++i) {
      if (rng.bernoulli(0.8)) {
        v[static_cast<std::size_t>(j) * m + i] = 0.2 + rng.uniform01();
        any = true;
      }
    }
    if (!any) v[static_cast<std::size_t>(j) * m] = 1.0;
  }
  return StochInstance(n, m, std::move(lambda), std::move(v));
}

// The Lawler–Labetoulle LP over `jobs`, written out independently of
// stoch/lawler_labetoulle.cpp: min C s.t. sum_i v_ij x_ij >= p_j,
// sum_i x_ij <= C per job and sum_j x_ij <= C per machine that can run a
// selected job.
lp::Problem ll_program(const StochInstance& inst, const std::vector<int>& jobs,
                       const std::vector<double>& p) {
  lp::Problem prog;
  const int c = prog.add_var(1.0);
  const int m = inst.num_machines();
  std::vector<lp::Row> loads(static_cast<std::size_t>(m));
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    lp::Row work;
    work.rel = lp::Rel::Ge;
    work.rhs = p[idx];
    lp::Row par;
    par.rel = lp::Rel::Le;
    par.terms.emplace_back(c, -1.0);
    for (int i = 0; i < m; ++i) {
      const double v = inst.speed(i, jobs[idx]);
      if (v <= 0) continue;
      const int x = prog.add_var(0.0);
      work.terms.emplace_back(x, v);
      par.terms.emplace_back(x, 1.0);
      loads[static_cast<std::size_t>(i)].terms.emplace_back(x, 1.0);
    }
    prog.add_row(std::move(work));
    prog.add_row(std::move(par));
  }
  for (lp::Row& load : loads) {
    if (load.terms.empty()) continue;
    load.rel = lp::Rel::Le;
    load.terms.emplace_back(c, -1.0);
    prog.add_row(std::move(load));
  }
  return prog;
}

// solve_rpmtn on (jobs, p) starts from its crash basis (one that does not
// install throws), reaches the tableau oracle's C* within 1e-9 (relative)
// on ll_program, and its slices deliver every job its work. Returns the
// schedule.
PreemptiveSchedule expect_crash_start(const StochInstance& inst,
                                      const std::vector<int>& jobs,
                                      const std::vector<double>& p,
                                      const std::string& at) {
  const PreemptiveSchedule s = solve_rpmtn(inst, jobs, p);
  const lp::Solution ref = lp::oracle::solve_tableau(ll_program(inst, jobs, p));
  EXPECT_EQ(ref.status, lp::Status::Optimal) << at;
  EXPECT_NEAR(s.makespan, ref.objective,
              1e-9 * std::max(std::fabs(ref.objective), 1e-9))
      << at << ": C* differs from the tableau oracle";
  std::vector<double> work(jobs.size(), 0.0);
  for (const Slice& slice : s.slices) {
    for (int i = 0; i < inst.num_machines(); ++i) {
      const int idx = slice.job_of_machine[static_cast<std::size_t>(i)];
      if (idx < 0) continue;
      work[static_cast<std::size_t>(idx)] +=
          slice.duration * inst.speed(i, jobs[static_cast<std::size_t>(idx)]);
    }
  }
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    EXPECT_GE(work[idx], p[idx] - 1e-6 * (1.0 + p[idx]))
        << at << ": job " << jobs[idx] << " short of its work";
  }
  return s;
}

TEST(LawlerLabetoulle, CrashStartOnStcIPrograms) {
  // Every program run_stc_i solves on bench_fig_stoch-shaped instances: the
  // offline optimum, then each doubling round's targets 2^(k-2)/lambda_j
  // net of work done (the rounds are replayed here with the schedules
  // solve_rpmtn returns, in run_stc_i's order). These rounds never net a
  // target down to 0; CrashStartEdgeCases covers zero targets.
  int programs = 0;
  const int shapes[][2] = {{4, 2}, {28, 6}, {128, 16}};
  for (const auto& shape : shapes) {
    const int n = shape[0];
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng inst_rng(seed + static_cast<std::uint64_t>(n));
      const StochInstance inst = cluster_instance(inst_rng, n, shape[1]);
      util::Rng rng = util::Rng(seed + 10).child(1);
      std::vector<double> p(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        p[static_cast<std::size_t>(j)] = rng.exponential(inst.lambda(j));
      }
      const std::string at =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      std::vector<int> rem(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) rem[static_cast<std::size_t>(j)] = j;
      expect_crash_start(inst, rem, p, at + " offline");
      ++programs;

      std::vector<double> work(static_cast<std::size_t>(n), 0.0);
      for (int k = 1; k <= stc_round_bound(n) && !rem.empty(); ++k) {
        std::vector<double> target(rem.size());
        for (std::size_t idx = 0; idx < rem.size(); ++idx) {
          const int j = rem[idx];
          target[idx] = std::max(0.0, std::ldexp(1.0, k - 2) / inst.lambda(j) -
                                          work[static_cast<std::size_t>(j)]);
        }
        const PreemptiveSchedule s = expect_crash_start(
            inst, rem, target, at + " round=" + std::to_string(k));
        ++programs;
        // Play the whole round: a job is done once its work reaches p_j.
        for (const Slice& slice : s.slices) {
          for (int i = 0; i < inst.num_machines(); ++i) {
            const int idx = slice.job_of_machine[static_cast<std::size_t>(i)];
            if (idx < 0) continue;
            const int j = rem[static_cast<std::size_t>(idx)];
            const double pj = p[static_cast<std::size_t>(j)];
            double& w = work[static_cast<std::size_t>(j)];
            w = std::min(pj, w + slice.duration * inst.speed(i, j));
            if (w >= pj - 1e-15) w = pj;  // run_stc_i's completion test
          }
        }
        std::vector<int> next;
        for (const int j : rem) {
          if (work[static_cast<std::size_t>(j)] <
              p[static_cast<std::size_t>(j)]) {
            next.push_back(j);
          }
        }
        rem = std::move(next);
      }
    }
  }
  EXPECT_GE(programs, 18);
  std::cout << "[stoch] " << programs << " LL programs\n";
}

TEST(LawlerLabetoulle, CrashStartEdgeCases) {
  // speeds are row-major by job: speeds[j * m + i] = v_ij.
  {
    const StochInstance inst(1, 2, {1.0}, {2.0, 3.0});
    const PreemptiveSchedule s =
        expect_crash_start(inst, {0}, {6.0}, "single job");
    EXPECT_NEAR(s.makespan, 2.0, 1e-9);
  }
  {
    // Machine 2 runs only job 2, which is not selected: no load row.
    const StochInstance inst(3, 3, {1.0, 1.0, 1.0},
                             {1.0, 0.5, 0.0, /**/ 0.3, 0.8, 0.0,
                              /**/ 0.0, 0.0, 1.0});
    expect_crash_start(inst, {0, 1}, {2.0, 1.0},
                       "machine capable of no selected job");
  }
  {
    // Every job's speeds tie: i* is machine 0 for all three.
    const StochInstance inst(3, 2, {1.0, 1.0, 1.0},
                             {1.0, 1.0, /**/ 1.0, 1.0, /**/ 1.0, 1.0});
    expect_crash_start(inst, {0, 1, 2}, {2.0, 2.0, 1.0},
                       "tied fastest speeds");
  }
  {
    util::Rng rng(5);
    const StochInstance inst = cluster_instance(rng, 6, 3);
    const std::vector<int> jobs = {0, 1, 2, 3, 4, 5};
    expect_crash_start(inst, jobs, {0.0, 1.5, 0.0, 2.0, 0.0, 0.5},
                       "some zero targets");
    const PreemptiveSchedule s = expect_crash_start(
        inst, jobs, std::vector<double>(6, 0.0), "all-zero targets");
    EXPECT_EQ(s.makespan, 0.0);
  }
}

TEST(StcI, OfflineOptimumSkipsTheSlicesBitForBit) {
  // run_stc_i and run_stc_r take the offline optimum from rpmtn_makespan
  // (the LP without its BvN slices); it must equal solve_rpmtn's makespan
  // on the realization both draw first, exactly.
  const int shapes[][2] = {{28, 6}, {128, 16}};
  for (const auto& shape : shapes) {
    const int n = shape[0];
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng inst_rng(seed + static_cast<std::uint64_t>(n));
      const StochInstance inst = cluster_instance(inst_rng, n, shape[1]);
      util::Rng draw = util::Rng(seed + 10).child(1);
      std::vector<double> p(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        p[static_cast<std::size_t>(j)] = draw.exponential(inst.lambda(j));
      }
      std::vector<int> all(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) all[static_cast<std::size_t>(j)] = j;
      const double full = solve_rpmtn(inst, all, p).makespan;
      EXPECT_EQ(rpmtn_makespan(inst, all, p), full);
      util::Rng rng_i = util::Rng(seed + 10).child(1);
      EXPECT_EQ(run_stc_i(inst, rng_i).offline_opt, full)
          << "n=" << n << " seed=" << seed;
      util::Rng rng_r = util::Rng(seed + 10).child(1);
      EXPECT_EQ(run_stc_r(inst, rng_r).offline_opt, full)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(StcRoundBound, Values) {
  EXPECT_EQ(stc_round_bound(2), 3);
  EXPECT_EQ(stc_round_bound(4), 4);
  EXPECT_EQ(stc_round_bound(16), 5);
  EXPECT_EQ(stc_round_bound(1), 3);
}

TEST(StcI, SingleJobBasicallyOptimal) {
  // One job: STC-I should track the offline optimum within its constant.
  const StochInstance inst(1, 2, {1.0}, {1.0, 2.0});
  const StochEstimate est = estimate_stoch(inst, 2000, 77);
  EXPECT_GT(est.offline.mean, 0.0);
  EXPECT_LT(est.stc_i.mean / est.offline.mean, 4.0);
}

TEST(StcI, CompletesAndBeatsSequentialAtScale) {
  util::Rng rng(41);
  const StochInstance inst = random_instance(rng, 10, 4);
  const StochEstimate est = estimate_stoch(inst, 300, 43);
  EXPECT_GT(est.stc_i.mean, 0.0);
  // With 4 machines, parallelizing should beat the sequential baseline.
  EXPECT_LT(est.stc_i.mean, est.sequential.mean);
  // Offline optimum is a valid lower bound.
  EXPECT_LE(est.offline.mean, est.stc_i.mean + 1e-9);
  EXPECT_LE(est.mean_rounds, stc_round_bound(10));
}

TEST(StcI, RatioBoundedOnRandomFamilies) {
  util::Rng rng(47);
  for (int trial = 0; trial < 3; ++trial) {
    const StochInstance inst = random_instance(rng, 6, 3);
    const StochEstimate est = estimate_stoch(inst, 300, 100 + trial);
    const double ratio = est.stc_i.mean / est.offline.mean;
    EXPECT_LT(ratio, 6.0) << "trial " << trial;
    EXPECT_GE(ratio, 1.0 - 0.05);
  }
}

TEST(StcI, DeterministicPerSeed) {
  util::Rng rng(53);
  const StochInstance inst = random_instance(rng, 5, 2);
  const StochEstimate a = estimate_stoch(inst, 50, 9, 1);
  const StochEstimate b = estimate_stoch(inst, 50, 9, 4);
  EXPECT_DOUBLE_EQ(a.stc_i.mean, b.stc_i.mean);
  EXPECT_DOUBLE_EQ(a.offline.mean, b.offline.mean);
}

TEST(StcI, TailFractionSmall) {
  util::Rng rng(59);
  const StochInstance inst = random_instance(rng, 8, 3);
  const StochEstimate est = estimate_stoch(inst, 400, 13);
  // Theorem 13: survivors past round K occur with probability <= 1/n.
  EXPECT_LE(est.tail_fraction, 0.35);
}

}  // namespace
}  // namespace suu::stoch
