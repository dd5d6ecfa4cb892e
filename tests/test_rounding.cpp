#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "chains/decomposition.hpp"
#include "core/generators.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace suu::rounding {
namespace {

std::vector<int> all_jobs(const core::Instance& inst) {
  std::vector<int> v(static_cast<std::size_t>(inst.num_jobs()));
  for (int j = 0; j < inst.num_jobs(); ++j) v[static_cast<std::size_t>(j)] = j;
  return v;
}

// An assignment folded job by job, in steps_for order, into one hash, so a
// pin catches a different insertion order as well as different steps.
std::uint64_t assignment_hash(const sched::IntegralAssignment& x) {
  std::uint64_t h = 0;
  for (int j = 0; j < x.num_jobs(); ++j) {
    for (const auto& [i, steps] : x.steps_for(j)) {
      h = util::hash_combine(h, static_cast<std::uint64_t>(j));
      h = util::hash_combine(h, static_cast<std::uint64_t>(i));
      h = util::hash_combine(h, static_cast<std::uint64_t>(steps));
    }
  }
  return h;
}

TEST(Lp1, SingleJobClosedForm) {
  // One job, two machines with ell = 1 and ell = 2 (q = 1/2, 1/4), L = 1/2:
  // ell' = 1/2 both; the demand L splits evenly, so t* = L / sum(ell') =
  // 0.5 / 1.0 = 0.5.
  core::Instance inst = core::Instance::independent(1, 2, {0.5, 0.25});
  const Lp1Fractional f = solve_lp1(inst, {0}, 0.5);
  EXPECT_NEAR(f.t, 0.5, 1e-6);
  EXPECT_NEAR(f.lower_bound, 0.5, 1e-6);
}

TEST(Lp1, TrimRemovesPaperSurplus) {
  // The Lemma 2 flow delivers ~6L mass; trimming brings single-job
  // assignments back to the minimum number of steps.
  core::Instance inst = core::Instance::independent(1, 1, {0.5});  // ell = 1
  const Lp1Fractional f = solve_lp1(inst, {0}, 1.0);
  const auto untrimmed = round_lp1(inst, {0}, 1.0, f, /*trim=*/false);
  const auto trimmed = round_lp1(inst, {0}, 1.0, f, /*trim=*/true);
  EXPECT_GE(untrimmed.job_length(0), trimmed.job_length(0));
  EXPECT_EQ(trimmed.job_length(0), 1);  // one step of ell=1 covers L=1
  EXPECT_GE(trimmed.delivered_mass(inst, 0, 1.0), 1.0 - 1e-9);
}

TEST(Lp1, TruncationAppliesCap) {
  // ell = 4 on the only machine, L = 1: ell' = 1 so t* = 1 (not 1/4).
  core::Instance inst = core::Instance::independent(1, 1, {0.0625});
  const Lp1Fractional f = solve_lp1(inst, {0}, 1.0);
  EXPECT_NEAR(f.t, 1.0, 1e-6);
}

TEST(Lp1, RejectsEmptyOrDuplicateJobs) {
  core::Instance inst = core::Instance::independent(2, 1, {0.5, 0.5});
  EXPECT_THROW(solve_lp1(inst, {}, 0.5), util::CheckError);
  EXPECT_THROW(solve_lp1(inst, {0, 0}, 0.5), util::CheckError);
}

struct RoundingCase {
  int n, m, seed;
  double L;
  core::MachineModel::Kind kind;
};

class Lemma2Rounding
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(Lemma2Rounding, GuaranteesHold) {
  const auto [n, m, L, seed] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  const auto model = (seed % 2 == 0)
                         ? core::MachineModel::uniform(0.2, 0.95)
                         : core::MachineModel::sparse(0.5, 0.2, 0.9);
  core::Instance inst = core::make_independent(n, m, model, rng);
  const auto jobs = all_jobs(inst);

  const Lp1Fractional frac = solve_lp1(inst, jobs, L);
  const sched::IntegralAssignment x = round_lp1(inst, jobs, L, frac);

  // Lemma 2 part 1: every job receives truncated log mass >= L.
  for (const int j : jobs) {
    EXPECT_GE(x.delivered_mass(inst, j, L), L - 1e-7) << "job " << j;
  }
  // Lemma 2 part 2: machine loads <= ceil(6 t*) (+ the documented top-up
  // slack, which is tiny; assert 7 t* + 2 to be safe).
  for (int i = 0; i < m; ++i) {
    EXPECT_LE(static_cast<double>(x.load(i)), 7.0 * frac.t + 2.0)
        << "machine " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma2Rounding,
    ::testing::Combine(::testing::Values(3, 8, 16), ::testing::Values(2, 5),
                       ::testing::Values(0.5, 1.0, 4.0),
                       ::testing::Values(0, 1, 2)));

TEST(Lemma2Rounding, FrankWolfeSolverPathAlsoSound) {
  util::Rng rng(99);
  core::Instance inst = core::make_independent(
      24, 6, core::MachineModel::uniform(0.3, 0.9), rng);
  const auto jobs = all_jobs(inst);
  Lp1Options opt;
  opt.simplex_size_limit = 0;  // Frank–Wolfe at every size
  const Lp1Fractional frac = solve_lp1(inst, jobs, 0.5, opt);
  EXPECT_GT(frac.lower_bound, 0.0);
  EXPECT_GE(frac.t, frac.lower_bound - 1e-9);
  const sched::IntegralAssignment x = round_lp1(inst, jobs, 0.5, frac);
  for (const int j : jobs) {
    EXPECT_GE(x.delivered_mass(inst, j, 0.5), 0.5 - 1e-7);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_LE(static_cast<double>(x.load(i)), 7.0 * frac.t + 2.0);
  }
}

TEST(Lp1Schedule, BuildsNonEmptyScheduleCoveringJobs) {
  util::Rng rng(17);
  core::Instance inst = core::make_independent(
      6, 3, core::MachineModel::uniform(0.4, 0.9), rng);
  const Lp1Schedule s = build_lp1_schedule(inst, all_jobs(inst), 0.5);
  EXPECT_GT(s.schedule.length(), 0);
  EXPECT_EQ(s.schedule.length(), s.assignment.max_load());
  EXPECT_GT(s.t_fractional, 0.0);
}

TEST(Lp1, SubsetOfJobsOnly) {
  util::Rng rng(21);
  core::Instance inst = core::make_independent(
      8, 3, core::MachineModel::uniform(0.4, 0.9), rng);
  const std::vector<int> subset = {1, 4, 6};
  const Lp1Fractional f = solve_lp1(inst, subset, 2.0);
  const sched::IntegralAssignment x = round_lp1(inst, subset, 2.0, f);
  for (const int j : subset) {
    EXPECT_GE(x.delivered_mass(inst, j, 2.0), 2.0 - 1e-7);
  }
  // Untouched jobs get nothing.
  EXPECT_TRUE(x.steps_for(0).empty());
  EXPECT_TRUE(x.steps_for(7).empty());
}

// round_lp1(J, 1/2) of the default LP1 point on the indep_solve machine
// classes (simplex at 256x8, Frank–Wolfe above the cutover), trimmed and
// untrimmed. The hashes were recorded with the per-job std::map group
// builder; the flat builder adds the same nodes and edges in the same
// order, so Dinic routes the same flow. The untrimmed hash also pins the
// order in which the flow's steps enter the assignment (trimming re-sorts
// them).
TEST(Lemma2Rounding, AssignmentsPinnedOnIndependentClasses) {
  struct Case {
    int n, m;
    std::uint64_t seed, trimmed, untrimmed;
  };
  const Case cases[] = {
      {256, 8, 1, 0x6096e10731b240deULL, 0xd3bb44eb7833f635ULL},
      {256, 8, 2, 0xf207fc498a495c20ULL, 0xd5f6b53783e24cf8ULL},
      {256, 8, 3, 0x521d5d9b48d18727ULL, 0x73bd1688c1f75766ULL},
      {1024, 32, 1, 0x2fd1a3e0ec9b2cb9ULL, 0xace7a0a6a2fe75b6ULL},
      {1024, 32, 2, 0xded25238fb88892aULL, 0x3ca5bd18ea609da6ULL},
      {1024, 32, 3, 0x9e01710fac0ebdefULL, 0xf8c091bc12addc02ULL},
      {4096, 8, 1, 0x1212a74d731926caULL, 0x12842b1b684863d8ULL},
      {4096, 8, 2, 0x533cdd5dc2fb7c08ULL, 0x6d92dd9b705494f6ULL},
      {4096, 8, 3, 0x6c4114793d5c1dc0ULL, 0xf4b677003ea2d4c0ULL},
  };
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    const core::Instance inst =
        core::make_independent(c.n, c.m, core::MachineModel::classes(), rng);
    const auto jobs = all_jobs(inst);
    const Lp1Fractional frac = solve_lp1(inst, jobs, 0.5);
    EXPECT_EQ(assignment_hash(round_lp1(inst, jobs, 0.5, frac)), c.trimmed)
        << c.n << "x" << c.m << " seed " << c.seed;
    EXPECT_EQ(assignment_hash(round_lp1(inst, jobs, 0.5, frac, false)),
              c.untrimmed)
        << c.n << "x" << c.m << " seed " << c.seed << ", untrimmed";
  }
}

// ---- LP2 / Lemma 6 ----

TEST(Lp2, SingleChainSingleMachine) {
  // Chain of 2 jobs, one machine with q = 0.5 (ell = 1): x = 1 step each,
  // d_j = 1, t* = 2 (load and chain length agree).
  core::Instance inst(2, 1, {0.5, 0.5}, core::make_chain_dag({2}));
  const Lp2Result r = solve_and_round_lp2(inst, inst.dag().chains());
  EXPECT_NEAR(r.t_fractional, 2.0, 1e-6);
  EXPECT_GE(r.assignment.delivered_mass(inst, 0, 1.0), 1.0 - 1e-9);
  EXPECT_GE(r.assignment.delivered_mass(inst, 1, 1.0), 1.0 - 1e-9);
  EXPECT_EQ(r.d[0], 1);
  EXPECT_EQ(r.d[1], 1);
}

class Lemma6Rounding : public ::testing::TestWithParam<int> {};

TEST_P(Lemma6Rounding, GuaranteesHold) {
  util::Rng rng(3000 + GetParam());
  core::Instance inst = core::make_chains(
      3 + GetParam() % 3, 1, 5, 3, core::MachineModel::uniform(0.25, 0.95),
      rng);
  const auto chains = inst.dag().chains();
  const Lp2Result r = solve_and_round_lp2(inst, chains);

  // Unit mass per job.
  for (int j = 0; j < inst.num_jobs(); ++j) {
    EXPECT_GE(r.assignment.delivered_mass(inst, j, 1.0), 1.0 - 1e-7)
        << "job " << j;
  }
  // Loads O(t*).
  for (int i = 0; i < inst.num_machines(); ++i) {
    EXPECT_LE(static_cast<double>(r.assignment.load(i)),
              7.0 * r.t_fractional + 2.0);
  }
  // Chain lengths O(t*): paper gives <= 7 sum d*_j <= 7 t* (+|Ck| slack).
  for (const auto& chain : chains) {
    std::int64_t len = 0;
    for (const int j : chain) len += r.d[j];
    EXPECT_LE(static_cast<double>(len),
              7.0 * r.t_fractional + static_cast<double>(chain.size()) + 2.0);
  }
  // d_j = max_i x_ij and >= 1.
  for (int j = 0; j < inst.num_jobs(); ++j) {
    EXPECT_GE(r.d[j], 1);
    EXPECT_GE(r.d[j], r.assignment.job_length(j));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma6Rounding, ::testing::Range(0, 8));

// Lemma 6 shares Lemma 2's group flow; its assignments and job lengths
// stay those of the former std::map builder (hashes recorded with it).
TEST(Lemma6Rounding, AssignmentsPinnedOnChainsAndForests) {
  const auto lp2_hash = [](const Lp2Result& r) {
    std::uint64_t h = assignment_hash(r.assignment);
    for (const std::int64_t d : r.d) {
      h = util::hash_combine(h, static_cast<std::uint64_t>(d));
    }
    return h;
  };
  struct Case {
    int chains;
    std::uint64_t seed, hash;
  };
  const Case chain_cases[] = {
      {4, 1, 0xaa3770c120bd1790ULL},  {4, 2, 0x4e9820ce41775b3bULL},
      {4, 3, 0xcfdcb2a17d568b8dULL},  {16, 1, 0x46231e502abdc2abULL},
      {16, 2, 0xf4bd16214ce0a276ULL}, {16, 3, 0xb83253fdaefec11cULL},
      {32, 1, 0x65f9fd97889fd93aULL}, {32, 2, 0x61a24166efdd2f7fULL},
      {32, 3, 0xe52eba29ca266974ULL},
  };
  for (const Case& c : chain_cases) {
    util::Rng rng(c.seed);
    const core::Instance inst = core::make_chains(
        c.chains, 2, 6, 8, core::MachineModel::uniform(0.3, 0.9), rng);
    EXPECT_EQ(lp2_hash(solve_and_round_lp2(inst, inst.dag().chains())), c.hash)
        << c.chains << " chains, seed " << c.seed;
  }
  // All heavy-path chains of a 256-job forest in one LP2 (the lower
  // bound's program).
  const std::uint64_t forest_hash[] = {0x8d74068b7ab7b699ULL,
                                       0x95c8dee779a1d591ULL};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    util::Rng rng(seed);
    const core::Instance inst = core::make_out_forest(
        256, 8, 0.1, 3, core::MachineModel::classes(), rng);
    std::vector<std::vector<int>> chains;
    for (const auto& block : chains::decompose_forest(inst.dag()).blocks) {
      chains.insert(chains.end(), block.begin(), block.end());
    }
    EXPECT_EQ(lp2_hash(solve_and_round_lp2(inst, chains)),
              forest_hash[seed - 1])
        << "forest seed " << seed;
  }
}

TEST(Lp2, RejectsOverlappingChains) {
  core::Instance inst = core::Instance::independent(3, 1, {0.5, 0.5, 0.5});
  EXPECT_THROW(solve_and_round_lp2(inst, {{0, 1}, {1, 2}}), util::CheckError);
  EXPECT_THROW(solve_and_round_lp2(inst, {{}}), util::CheckError);
  EXPECT_THROW(solve_and_round_lp2(inst, {}), util::CheckError);
}

TEST(Lp2, LowerBoundConsistentWithLp1) {
  // LP2 includes LP1's constraints (with L = 1), so t_LP2 >= t_LP1(J, 1).
  util::Rng rng(55);
  core::Instance inst = core::make_chains(
      3, 2, 4, 3, core::MachineModel::uniform(0.3, 0.9), rng);
  const Lp2Result r2 = solve_and_round_lp2(inst, inst.dag().chains());
  std::vector<int> jobs(static_cast<std::size_t>(inst.num_jobs()));
  for (int j = 0; j < inst.num_jobs(); ++j) {
    jobs[static_cast<std::size_t>(j)] = j;
  }
  const Lp1Fractional f1 = solve_lp1(inst, jobs, 1.0);
  EXPECT_GE(r2.t_fractional, f1.t - 1e-6);
}

}  // namespace
}  // namespace suu::rounding
