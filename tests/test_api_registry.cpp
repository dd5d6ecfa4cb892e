#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "algos/baselines.hpp"
#include "api/precompute_cache.hpp"
#include "core/generators.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace suu::api {
namespace {

core::Instance independent_instance(int n, int m, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return core::make_independent(n, m, core::MachineModel::uniform(0.3, 0.9),
                                rng);
}

core::Instance chain_instance(std::uint64_t seed = 2) {
  util::Rng rng(seed);
  return core::make_chains(3, 2, 4, 3, core::MachineModel::uniform(0.3, 0.9),
                           rng);
}

core::Instance forest_instance(std::uint64_t seed = 3) {
  util::Rng rng(seed);
  return core::make_out_forest(12, 3, 0.2, 3,
                               core::MachineModel::uniform(0.3, 0.9), rng);
}

core::Instance general_dag_instance(std::uint64_t seed = 4) {
  // Diamond: 0 -> {1, 2} -> 3. Vertex 3 has two predecessors, so this is
  // neither chains nor an out-forest; vertex 0 has two successors, so it is
  // not an in-forest either.
  const int n = 4, m = 2;
  core::Dag dag(n);
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  util::Rng rng(seed);
  return core::Instance(n, m, core::gen_q(n, m,
                                          core::MachineModel::uniform(0.3, 0.9),
                                          rng),
                        std::move(dag));
}

TEST(SolverRegistry, BuiltinsRegistered) {
  const SolverRegistry& reg = SolverRegistry::global();
  for (const char* name :
       {"suu-i", "suu-i-sem", "suu-i-obl", "suu-c", "suu-t", "exact-dp",
        "width-dp", "all-on-one", "round-robin", "best-machine",
        "adaptive-greedy", "greedy-lr"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.summary(name).empty()) << name;
  }
}

TEST(SolverRegistry, DispatchEmptyDagToSuuISem) {
  const core::Instance inst = independent_instance(6, 3);
  EXPECT_EQ(SolverRegistry::dispatch(inst), "suu-i-sem");
  const PreparedSolver s = solve_auto(inst);
  EXPECT_EQ(s.name, "suu-i-sem");
  EXPECT_EQ(s.factory()->name(), "suu-i-sem");
}

TEST(SolverRegistry, DispatchChainsToSuuC) {
  const core::Instance inst = chain_instance();
  ASSERT_TRUE(inst.dag().is_chains());
  EXPECT_EQ(SolverRegistry::dispatch(inst), "suu-c");
  const PreparedSolver s = solve_auto(inst);
  EXPECT_EQ(s.name, "suu-c");
  EXPECT_EQ(s.factory()->name(), "suu-c");
}

TEST(SolverRegistry, DispatchForestToSuuT) {
  const core::Instance inst = forest_instance();
  ASSERT_TRUE(inst.dag().is_out_forest());
  ASSERT_FALSE(inst.dag().is_chains());
  EXPECT_EQ(SolverRegistry::dispatch(inst), "suu-t");
  const PreparedSolver s = solve_auto(inst);
  EXPECT_EQ(s.name, "suu-t");
  EXPECT_EQ(s.factory()->name(), "suu-t");
}

TEST(SolverRegistry, DispatchGeneralDagToTrivialApproximation) {
  const core::Instance inst = general_dag_instance();
  ASSERT_FALSE(inst.dag().is_chains());
  ASSERT_FALSE(inst.dag().is_out_forest());
  ASSERT_FALSE(inst.dag().is_in_forest());
  EXPECT_EQ(SolverRegistry::dispatch(inst), "all-on-one");
  const PreparedSolver s = solve_auto(inst);
  EXPECT_EQ(s.name, "all-on-one");
}

TEST(SolverRegistry, UnknownNameThrows) {
  const core::Instance inst = independent_instance(4, 2);
  EXPECT_THROW(make_solver(inst, "no-such-solver"), util::CheckError);
  EXPECT_THROW(SolverRegistry::global().summary("no-such-solver"),
               util::CheckError);
}

TEST(SolverRegistry, StructureMismatchThrows) {
  const core::Instance forest = forest_instance();
  EXPECT_THROW(make_solver(forest, "suu-c"), util::CheckError);
  const core::Instance general = general_dag_instance();
  EXPECT_THROW(make_solver(general, "suu-t"), util::CheckError);
}

TEST(SolverRegistry, ReservedAndDuplicateNamesRejected) {
  SolverRegistry reg;
  auto noop = [](const core::Instance&, const SolverOptions&) {
    return sim::PolicyFactory(
        [] { return std::make_unique<algos::AllOnOnePolicy>(); });
  };
  EXPECT_THROW(reg.add("auto", noop, ""), util::CheckError);
  reg.add("custom", noop, "test entry");
  EXPECT_THROW(reg.add("custom", noop, "again"), util::CheckError);
  EXPECT_TRUE(reg.contains("custom"));
}

TEST(SolverRegistry, AliasSuuIResolvesToSem) {
  const core::Instance inst = independent_instance(5, 2);
  const PreparedSolver s = make_solver(inst, "suu-i");
  EXPECT_EQ(s.factory()->name(), "suu-i-sem");
}

TEST(SolverRegistry, PreparedFactoryIsReusable) {
  // The factory must mint independent policies: two executions from the
  // same prepared solver may not share mutable state.
  const core::Instance inst = independent_instance(6, 3);
  const PreparedSolver s = solve_auto(inst);
  sim::EstimateOptions opt;
  opt.replications = 20;
  opt.seed = 7;
  opt.threads = 1;
  const util::Estimate a = sim::estimate_makespan(inst, s.factory, opt);
  const util::Estimate b = sim::estimate_makespan(inst, s.factory, opt);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(PrecomputeCache, RepeatedPrepareHitsCache) {
  PrecomputeCache& cache = PrecomputeCache::global();
  cache.clear();
  cache.reset_stats();

  const core::Instance inst = independent_instance(7, 3, 11);
  const PreparedSolver first = make_solver(inst, "suu-i-sem");
  const PrecomputeCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GE(after_first.misses, 1u);
  EXPECT_GE(after_first.size, 1u);

  const PreparedSolver second = make_solver(inst, "suu-i-sem");
  EXPECT_EQ(cache.stats().hits, 1u);
  // Cached factories mint policies exactly like fresh ones.
  sim::EstimateOptions opt;
  opt.replications = 10;
  opt.seed = 3;
  opt.threads = 1;
  EXPECT_DOUBLE_EQ(sim::estimate_makespan(inst, first.factory, opt).mean,
                   sim::estimate_makespan(inst, second.factory, opt).mean);
}

TEST(PrecomputeCache, DistinctInstancesAndOptionsMiss) {
  PrecomputeCache& cache = PrecomputeCache::global();
  cache.clear();
  cache.reset_stats();

  const core::Instance a = independent_instance(7, 3, 21);
  const core::Instance b = independent_instance(7, 3, 22);
  make_solver(a, "suu-i-sem");
  make_solver(b, "suu-i-sem");  // different fingerprint
  SolverOptions opt;
  opt.lp1.simplex_size_limit = 0;
  make_solver(a, "suu-i-sem", opt);  // different options
  const PrecomputeCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 3u);
}

TEST(PrecomputeCache, OptOutBypassesCache) {
  PrecomputeCache& cache = PrecomputeCache::global();
  cache.clear();
  cache.reset_stats();

  const core::Instance inst = independent_instance(7, 3, 31);
  SolverOptions no_cache;
  no_cache.reuse_cache = false;
  make_solver(inst, "suu-i-sem", no_cache);
  make_solver(inst, "suu-i-sem", no_cache);

  const PrecomputeCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  EXPECT_EQ(s.size, 0u);
}

TEST(PrecomputeCache, PrepareKeyFoldsTheLp1SizeCutover) {
  // Cells that differ only in the LP1 size cutover (0 = Frank–Wolfe
  // always, INT_MAX = simplex always) must not alias one prepared solver.
  const core::Instance inst = independent_instance(7, 3, 41);
  const std::uint64_t key =
      SolverRegistry::prepare_key(inst, "suu-i-sem", SolverOptions{});
  for (const int limit : {0, 16, std::numeric_limits<int>::max()}) {
    SolverOptions opt;
    opt.lp1.simplex_size_limit = limit;
    EXPECT_NE(key, SolverRegistry::prepare_key(inst, "suu-i-sem", opt))
        << "limit " << limit;
  }
}

TEST(PrecomputeCache, LruEvictionTouchesOnHit) {
  PrecomputeCache& cache = PrecomputeCache::global();
  cache.clear();
  cache.reset_stats();
  cache.set_capacity(2);

  const auto trivial = [] {
    return PreparedParts{
        [] { return std::make_unique<algos::AllOnOnePolicy>(); }, nullptr};
  };
  cache.get_or_prepare(1, trivial);  // miss        lru: [1]
  cache.get_or_prepare(2, trivial);  // miss        lru: [1, 2]
  cache.get_or_prepare(1, trivial);  // hit, touch  lru: [2, 1]
  cache.get_or_prepare(3, trivial);  // miss, evicts 2 (LRU) — not 1 (FIFO
                                     // would have evicted 1 here)
  cache.get_or_prepare(1, trivial);  // hit: 1 survived the eviction
  cache.get_or_prepare(2, trivial);  // miss: 2 is gone; evicts 3

  const PrecomputeCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.capacity, 2u);

  cache.clear();
  cache.set_capacity(256);  // restore the process-wide default
}

TEST(PrecomputeCache, CapacityShrinkEvictsLruFirst) {
  PrecomputeCache& cache = PrecomputeCache::global();
  cache.clear();
  cache.reset_stats();
  cache.set_capacity(4);

  const auto trivial = [] {
    return PreparedParts{
        [] { return std::make_unique<algos::AllOnOnePolicy>(); }, nullptr};
  };
  for (std::uint64_t k = 1; k <= 4; ++k) cache.get_or_prepare(k, trivial);
  cache.get_or_prepare(1, trivial);  // touch 1; lru order now [2, 3, 4, 1]
  cache.set_capacity(1);             // evicts 2, 3, 4 — keeps the hot key

  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  cache.get_or_prepare(1, trivial);
  EXPECT_EQ(cache.stats().hits, 2u);  // 1 is still resident

  cache.clear();
  cache.set_capacity(256);  // restore the process-wide default
}

TEST(SolverRegistry, NamesSortedAndSummarized) {
  const SolverRegistry& reg = SolverRegistry::global();
  const std::vector<std::string> names = reg.names();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(LowerBoundAuto, MatchesStructureSpecificBounds) {
  const core::Instance ind = independent_instance(6, 3);
  EXPECT_DOUBLE_EQ(lower_bound_auto(ind).value,
                   algos::lower_bound_independent(ind).value);

  const core::Instance ch = chain_instance();
  EXPECT_DOUBLE_EQ(lower_bound_auto(ch).value,
                   algos::lower_bound_chains(ch, ch.dag().chains()).value);

  // Forests get the Lemma 5 LP2 term as well, so the bound is at least the
  // Lemma 1 value.
  const core::Instance f = forest_instance();
  EXPECT_GE(lower_bound_auto(f).value,
            algos::lower_bound_independent(f).value - 1e-9);
}

}  // namespace
}  // namespace suu::api
