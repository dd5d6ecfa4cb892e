// A lower bound read from a prepared solver reuses the relaxation optima
// the preparer already solved (LP1(J, 1/2) for suu-i-*, the chains' LP2
// for suu-c) and must be bitwise equal to a fresh lower_bound_auto. The
// service solves each program once per request, so the LP solve counter
// drops by one per reused program and reply bytes do not move.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/baselines.hpp"
#include "api/precompute_cache.hpp"
#include "api/registry.hpp"
#include "core/generators.hpp"
#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"

namespace suu {
namespace {

using core::MachineModel;

core::Instance independent(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_independent(n, m, MachineModel::classes(), rng);
}

core::Instance chains32(std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_chains(32, 2, 5, 4, MachineModel::uniform(0.3, 0.9),
                           rng);
}

core::Instance forest(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_out_forest(n, 8, 0.1, 3, MachineModel::classes(), rng);
}

core::Instance general_dag(std::uint64_t seed) {
  // Two diamonds 0 -> {1, 2} -> 3 and 4 -> {5, 6} -> 7 plus a loose job:
  // neither chains nor a forest in either direction.
  const int n = 9, m = 3;
  core::Dag dag(n);
  for (const int base : {0, 4}) {
    dag.add_edge(base, base + 1);
    dag.add_edge(base, base + 2);
    dag.add_edge(base + 1, base + 3);
    dag.add_edge(base + 2, base + 3);
  }
  util::Rng rng(seed);
  return core::Instance(n, m,
                        core::gen_q(n, m, MachineModel::uniform(0.3, 0.9), rng),
                        std::move(dag));
}

void expect_bitwise_equal(const algos::LowerBound& a,
                          const algos::LowerBound& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lp1_half),
            std::bit_cast<std::uint64_t>(b.lp1_half));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lp2_half),
            std::bit_cast<std::uint64_t>(b.lp2_half));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
            std::bit_cast<std::uint64_t>(b.value));
}

/// Prepare `solver` cold, then check the reused bound against a fresh one.
api::PreparedSolver expect_reuse_identity(const core::Instance& inst,
                                          const std::string& solver,
                                          const api::SolverOptions& opt = {}) {
  api::SolverOptions cold = opt;
  cold.reuse_cache = false;
  const api::PreparedSolver prepared = api::make_solver(inst, solver, cold);
  expect_bitwise_equal(api::lower_bound_auto(inst, prepared, opt.lp1),
                       api::lower_bound_auto(inst, opt.lp1));
  return prepared;
}

// ------------------------------------------------------------ identity

TEST(LowerBoundReuse, IndependentSimplexReusesLp1) {
  const core::Instance inst = independent(64, 32, 1);
  const api::PreparedSolver s = expect_reuse_identity(inst, "auto");
  ASSERT_NE(s.relaxations, nullptr);
  EXPECT_TRUE(s.relaxations->lp1_all_half.has_value());
  EXPECT_FALSE(s.relaxations->lp2.has_value());
  EXPECT_EQ(s.relaxations->fingerprint, inst.fingerprint());
}

TEST(LowerBoundReuse, IndependentFrankWolfeReusesLp1) {
  // 1024 x 32 = 32768 cells: past the Auto cutover, so LP1 runs on the
  // certified Frank-Wolfe path and the reused value is its lower bound.
  const core::Instance inst = independent(1024, 32, 2);
  const api::PreparedSolver s = expect_reuse_identity(inst, "auto");
  ASSERT_NE(s.relaxations, nullptr);
  EXPECT_TRUE(s.relaxations->lp1_all_half.has_value());
}

TEST(LowerBoundReuse, SuuIOblAndAliasCarryLp1) {
  const core::Instance inst = independent(64, 8, 3);
  for (const char* name : {"suu-i-obl", "suu-i"}) {
    const api::PreparedSolver s = expect_reuse_identity(inst, name);
    ASSERT_NE(s.relaxations, nullptr) << name;
    EXPECT_TRUE(s.relaxations->lp1_all_half.has_value()) << name;
  }
}

TEST(LowerBoundReuse, ChainsReuseLp2) {
  const core::Instance inst = chains32(4);
  const api::PreparedSolver s = expect_reuse_identity(inst, "auto");
  EXPECT_EQ(s.name, "suu-c");
  ASSERT_NE(s.relaxations, nullptr);
  EXPECT_FALSE(s.relaxations->lp1_all_half.has_value());
  EXPECT_TRUE(s.relaxations->lp2.has_value());
  EXPECT_EQ(s.relaxations->lp2_chains, inst.dag().chains());

  // LP2 over a different chain list is a different program: solved fresh.
  std::vector<std::vector<int>> fewer = inst.dag().chains();
  fewer.pop_back();
  const algos::LowerBound fresh = algos::lower_bound_chains(inst, fewer);
  expect_bitwise_equal(
      algos::lower_bound_chains(inst, fewer, {}, s.relaxations.get()), fresh);
  EXPECT_NE(fresh.lp2_half, api::lower_bound_auto(inst).lp2_half);
}

TEST(LowerBoundReuse, ForestCarriesNothing) {
  const core::Instance inst = forest(256, 5);
  const api::PreparedSolver s = expect_reuse_identity(inst, "auto");
  EXPECT_EQ(s.name, "suu-t");
  EXPECT_EQ(s.relaxations, nullptr);
  // SUU-I-SEM on a forest solves LP1(J, 1/2), which the forest bound also
  // uses; its all-blocks LP2 is still solved.
  expect_reuse_identity(inst, "suu-i-sem");
}

TEST(LowerBoundReuse, GeneralDag) {
  const core::Instance inst = general_dag(6);
  const api::PreparedSolver s = expect_reuse_identity(inst, "auto");
  EXPECT_EQ(s.name, "all-on-one");
  EXPECT_EQ(s.relaxations, nullptr);
  expect_reuse_identity(inst, "suu-i-sem");
}

TEST(LowerBoundReuse, BaselinesAndCustomSolversCarryNothing) {
  const core::Instance inst = independent(64, 32, 7);
  EXPECT_EQ(expect_reuse_identity(inst, "greedy-lr").relaxations, nullptr);

  api::SolverRegistry::global().add(
      "reuse-test-custom",
      [](const core::Instance&, const api::SolverOptions&) {
        return sim::PolicyFactory(
            [] { return std::make_unique<algos::AllOnOnePolicy>(); });
      },
      "custom solver without relaxation values");
  EXPECT_EQ(expect_reuse_identity(inst, "reuse-test-custom").relaxations,
            nullptr);
}

TEST(LowerBoundReuse, SharePrecomputeOffSolvesFresh) {
  api::SolverOptions opt;
  opt.share_precompute = false;
  for (const core::Instance& inst : {independent(64, 32, 8), chains32(8)}) {
    EXPECT_EQ(expect_reuse_identity(inst, "auto", opt).relaxations, nullptr);
  }
}

TEST(LowerBoundReuse, Lp1ReuseKeysOnOptions) {
  const core::Instance inst = independent(64, 32, 9);
  api::SolverOptions fw;
  fw.lp1.simplex_size_limit = 0;
  api::SolverOptions raised;
  raised.lp1.simplex_size_limit = 1 << 20;
  expect_reuse_identity(inst, "auto", fw);
  expect_reuse_identity(inst, "auto", raised);
  expect_reuse_identity(chains32(9), "auto", raised);

  // A solver prepared under one set of options answers an LP1 bound under
  // another by solving fresh, never with its own value.
  api::SolverOptions cold;
  cold.reuse_cache = false;
  const api::PreparedSolver simplex = api::make_solver(inst, "auto", cold);
  const algos::LowerBound fresh_fw = api::lower_bound_auto(inst, fw.lp1);
  expect_bitwise_equal(api::lower_bound_auto(inst, simplex, fw.lp1), fresh_fw);
  EXPECT_NE(fresh_fw.lp1_half, api::lower_bound_auto(inst).lp1_half);

  // Nor does it answer for a different instance.
  const core::Instance other = independent(64, 32, 10);
  expect_bitwise_equal(api::lower_bound_auto(other, simplex),
                       api::lower_bound_auto(other));
}

TEST(LowerBoundReuse, Lp2ReuseIgnoresLp1Options) {
  if (!obs::compiled_in) GTEST_SKIP() << "observability compiled out";
  // LP2 takes no options, so suu-c prepared with Frank–Wolfe LP1 still hands
  // its LP2 to a default-option bound: the bound solves its LP1 only.
  const core::Instance inst = chains32(13);
  api::SolverOptions fw;
  fw.reuse_cache = false;
  fw.lp1.simplex_size_limit = 0;
  const api::PreparedSolver s = api::make_solver(inst, "suu-c", fw);
  ASSERT_NE(s.relaxations, nullptr);
  ASSERT_TRUE(s.relaxations->lp2.has_value());

  const obs::Counter& solves =
      obs::Registry::global().counter("suu_lp_solves_total");
  const std::uint64_t before = solves.value();
  const algos::LowerBound reused = api::lower_bound_auto(inst, s, {});
  EXPECT_EQ(solves.value() - before, 1u) << "LP1 only, not LP2";
  expect_bitwise_equal(reused, api::lower_bound_auto(inst));
}

// ------------------------------------------------------ service level

std::string payload(const core::Instance& inst) {
  std::ostringstream os;
  core::write_instance(os, inst);
  std::string out;
  service::json_append_quoted(out, os.str());
  return out;
}

std::string solve_request(const core::Instance& inst,
                          const std::string& options = "{}") {
  return R"({"id":1,"method":"solve","params":{"instance":)" +
         payload(inst) + R"(,"lower_bound":true,"options":)" + options + "}}";
}

std::string estimate_request(const core::Instance& inst,
                             const std::string& options = "{}") {
  return R"({"id":2,"method":"estimate","params":{"instance":)" +
         payload(inst) + R"(,"lower_bound":true,"replications":3,"seed":5,)"
         R"("options":)" + options + "}}";
}

/// suu_lp_solves_total delta of one cold `handle(line)`.
std::uint64_t lp_solves(service::Engine& engine, const std::string& line) {
  api::PrecomputeCache::global().clear();
  const obs::Counter& solves =
      obs::Registry::global().counter("suu_lp_solves_total");
  const std::uint64_t before = solves.value();
  const std::string reply = engine.handle(line);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  return solves.value() - before;
}

TEST(LowerBoundReuse, ServiceSolvesEachProgramOnce) {
  if (!obs::compiled_in) GTEST_SKIP() << "observability compiled out";
  service::Engine engine;
  const std::string no_lb = R"("lower_bound":false)";
  const auto without_lb = [&](std::string line) {
    line.replace(line.find(R"("lower_bound":true)"), 18, no_lb);
    return line;
  };

  // 64 x 32: the prepare's LP1 is the bound's LP1 (was 2 solves).
  const std::string indep = solve_request(independent(64, 32, 11));
  EXPECT_EQ(lp_solves(engine, indep), 1u);
  EXPECT_EQ(lp_solves(engine, without_lb(indep)), 1u);

  // 32 chains: the prepare's LP2 is reused; only LP1 is added (was 3).
  const std::string chains = solve_request(chains32(11));
  EXPECT_EQ(lp_solves(engine, chains), 2u);
  EXPECT_EQ(lp_solves(engine, without_lb(chains)), 1u);

  // Forest: the bound still solves its LP1 and all-blocks LP2.
  const std::string f = solve_request(forest(256, 11));
  EXPECT_EQ(lp_solves(engine, f), lp_solves(engine, without_lb(f)) + 2u);

  // share_precompute off: the prepare solves nothing, the bound solves LP1.
  EXPECT_EQ(lp_solves(engine, solve_request(independent(64, 32, 11),
                                            R"({"share_precompute":false})")),
            1u);
}

TEST(LowerBoundReuse, WireBytesMatchFreshPath) {
  const std::string fresh = R"({"share_precompute":false})";
  for (const core::Instance& inst :
       {independent(64, 32, 12), chains32(12), forest(64, 12),
        general_dag(12)}) {
    service::Engine engine;
    api::PrecomputeCache::global().clear();
    const std::string solve = engine.handle(solve_request(inst));
    EXPECT_NE(solve.find("\"lower_bound\":"), std::string::npos) << solve;
    EXPECT_EQ(solve, engine.handle(solve_request(inst, fresh)));
    EXPECT_EQ(solve, engine.handle(solve_request(inst)));  // cache hit

    const std::string est = engine.handle(estimate_request(inst));
    EXPECT_NE(est.find("\"ratio\":"), std::string::npos) << est;
    EXPECT_EQ(est, engine.handle(estimate_request(inst, fresh)));
    EXPECT_EQ(est, engine.handle(estimate_request(inst)));
  }
}

}  // namespace
}  // namespace suu
