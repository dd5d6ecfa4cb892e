// PERF — engineering microbenchmarks (google-benchmark): throughput of the
// substrates so regressions in the solvers/engine are visible. Also the
// exact-simplex vs Frank–Wolfe ablation in time (value gap is in F-LP).
//
// Unless --benchmark_out is given, results are also written to
// BENCH_perf_micro.json (google-benchmark's JSON schema) in the working
// directory, so every run leaves a machine-readable record of the perf
// trajectory. Simplex benchmarks export a "pivots" counter (simplex
// pivots per solve; the final pricing pass that finds no entering column
// is not one) alongside wall time: a pricing regression shows up in pivots
// even when cache effects mask it in time.
#include <benchmark/benchmark.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "algos/exact_dp.hpp"
#include "algos/suu_i.hpp"
#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "chains/decomposition.hpp"
#include "core/generators.hpp"
#include "core/io.hpp"
#include "flow/max_flow.hpp"
#include "obs/metrics.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
#include "sim/engine.hpp"
#include "stoch/bvn.hpp"
#include "stoch/instance.hpp"
#include "stoch/lawler_labetoulle.hpp"
#include "util/rng.hpp"

using namespace suu;

namespace {

core::Instance bench_instance(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_independent(n, m,
                                core::MachineModel::uniform(0.3, 0.95), rng);
}

std::vector<int> all_jobs(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) v[static_cast<std::size_t>(j)] = j;
  return v;
}

// LP1(J, 1/2) simplex telemetry per solve. "pivots" counts pivots from
// the crash basis; "ftran_fill" reports the average fraction of the rows an
// FTRAN result actually occupied — the sparse eta storage only pays off
// while this stays well below 1, so a storage regression is visible here
// even when pivot counts hold steady.
struct Lp1Tally {
  std::int64_t pivots = 0, ftran_calls = 0, ftran_nnz = 0;
  void add(int it, std::int64_t calls, std::int64_t nnz) {
    pivots += it;
    ftran_calls += calls;
    ftran_nnz += nnz;
  }
  void report(benchmark::State& state, const core::Instance& inst) const;
};

void Lp1Tally::report(benchmark::State& state,
                      const core::Instance& inst) const {
  const auto iters = static_cast<double>(state.iterations());
  state.counters["pivots"] =
      benchmark::Counter(static_cast<double>(pivots) / iters);
  // LP1's standard form has one cover row per job plus one load row per
  // machine.
  const double rows =
      static_cast<double>(inst.num_jobs() + inst.num_machines());
  state.counters["ftran_fill"] = benchmark::Counter(
      ftran_calls > 0 ? static_cast<double>(ftran_nnz) /
                            (static_cast<double>(ftran_calls) * rows)
                      : 0.0);
}

// LP1(J, 1/2) through solve_lp1 under `opt`.
void run_lp1(benchmark::State& state, const core::Instance& inst,
             const rounding::Lp1Options& opt) {
  const auto jobs = all_jobs(inst.num_jobs());
  Lp1Tally tally;
  for (auto _ : state) {
    const rounding::Lp1Fractional frac =
        rounding::solve_lp1(inst, jobs, 0.5, opt);
    tally.add(frac.simplex_iterations, frac.ftran_calls, frac.ftran_nnz);
    benchmark::DoNotOptimize(frac.t);
  }
  tally.report(state, inst);
}

// The LP1 simplex path at every size (the limit forces it past the
// 4000-cell cutover): the revised engine from the greedy crash basis,
// Dantzig pricing.
void BM_Lp1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rounding::Lp1Options opt;
  opt.simplex_size_limit = std::numeric_limits<int>::max();
  run_lp1(state, bench_instance(n, 8, 11), opt);
  state.SetComplexityN(n);
}
BENCHMARK(BM_Lp1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Complexity();

// The default LP1 of indep_solve's median class: 64 jobs on 32
// volunteer-computing machine classes (the BM_SolveWithLowerBound instance).
void lp1_indep_median(benchmark::State& state) {
  util::Rng rng(21);
  run_lp1(state,
          core::make_independent(64, 32, core::MachineModel::classes(), rng),
          rounding::Lp1Options{});
}
BENCHMARK(lp1_indep_median)->Name("BM_Lp1/64x32");

// The per-solve "pivots" counter from a run total.
void report_pivots(benchmark::State& state, std::int64_t pivots) {
  state.counters["pivots"] = benchmark::Counter(
      static_cast<double>(pivots) / static_cast<double>(state.iterations()));
}

// The Lawler–Labetoulle LP behind STC-I (stoch::solve_rpmtn, crash basis
// plus the BvN slices): the offline program of F-STOCH's 128-job,
// 16-machine cluster instance (bench_fig_stoch's generator and seed 9),
// with p_j ~ Exp(lambda_j) drawn as run_stc_i draws its first
// replication's lengths. "pivots" counts pivots per solve from the crash
// basis.
void BM_Rpmtn(benchmark::State& state) {
  constexpr int kN = 128;
  constexpr std::uint64_t kSeed = 9;
  util::Rng inst_rng(kSeed + kN);
  const stoch::StochInstance inst = bench::make_cluster(inst_rng, kN, 16);
  util::Rng rng = util::Rng(kSeed + 10).child(1);
  std::vector<double> p(static_cast<std::size_t>(kN));
  for (int j = 0; j < kN; ++j) {
    p[static_cast<std::size_t>(j)] = rng.exponential(inst.lambda(j));
  }
  const auto jobs = all_jobs(kN);
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const stoch::PreemptiveSchedule s = stoch::solve_rpmtn(inst, jobs, p);
    pivots += s.simplex_iterations;
    benchmark::DoNotOptimize(s.makespan);
  }
  report_pivots(state, pivots);
}
BENCHMARK(BM_Rpmtn);

// Frank–Wolfe LP1(J, 1/2) on the indep_solve classes above the 4000-cell
// simplex cutover: make_independent(n, m, classes()). "fw_iterations" is
// the solver's iterations per solve (deterministic per build; the m = 32
// classes run to the 600 cap) and "gap" its relative certified gap
// (t - lower_bound) / t.
void BM_FrankWolfeLp1(benchmark::State& state, int n, int m) {
  util::Rng rng(12);
  const core::Instance inst =
      core::make_independent(n, m, core::MachineModel::classes(), rng);
  const auto jobs = all_jobs(n);
  rounding::Lp1Options opt;
  opt.simplex_size_limit = 0;  // Frank–Wolfe at every size
  rounding::Lp1Fractional frac;
  for (auto _ : state) {
    frac = rounding::solve_lp1(inst, jobs, 0.5, opt);
    benchmark::DoNotOptimize(frac.t);
  }
  state.counters["fw_iterations"] = frac.fw_iterations;
  state.counters["gap"] = (frac.t - frac.lower_bound) / frac.t;
}
BENCHMARK_CAPTURE(BM_FrankWolfeLp1, 1024x8, 1024, 8);
BENCHMARK_CAPTURE(BM_FrankWolfeLp1, 4096x8, 4096, 8);
BENCHMARK_CAPTURE(BM_FrankWolfeLp1, 256x32, 256, 32);
BENCHMARK_CAPTURE(BM_FrankWolfeLp1, 4096x32, 4096, 32);

void BM_RoundLp1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Instance inst = bench_instance(n, 8, 13);
  const auto jobs = all_jobs(n);
  const rounding::Lp1Fractional frac = rounding::solve_lp1(inst, jobs, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rounding::round_lp1(inst, jobs, 0.5, frac));
  }
}
BENCHMARK(BM_RoundLp1)->Arg(16)->Arg(64)->Arg(256);

// The indep_solve class that sets its p90: 4096 jobs on 32 volunteer-
// computing machine classes (the BM_FrankWolfeLp1/4096x32 instance).
const core::Instance& indep_4096x32() {
  static const core::Instance inst = [] {
    util::Rng rng(12);
    return core::make_independent(4096, 32, core::MachineModel::classes(),
                                  rng);
  }();
  return inst;
}

// Lemma 2 rounding of that class's default LP1(J, 1/2) point (Frank–Wolfe),
// max-flow and trim included.
void round_lp1_indep(benchmark::State& state) {
  const core::Instance& inst = indep_4096x32();
  const auto jobs = all_jobs(inst.num_jobs());
  static const rounding::Lp1Fractional frac =
      rounding::solve_lp1(inst, jobs, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rounding::round_lp1(inst, jobs, 0.5, frac));
  }
}
BENCHMARK(round_lp1_indep)->Name("BM_RoundLp1/4096x32");

// core::read_instance (the string_view overload) over that class's
// write_instance text, 2.6 MB: the wire payload a cold solve parses.
void BM_ReadInstance(benchmark::State& state) {
  std::ostringstream os;
  core::write_instance(os, indep_4096x32());
  const std::string text = os.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::read_instance(text).fingerprint());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadInstance)->Name("BM_ReadInstance/4096x32");

// The default LP2 path (revised engine from the crash basis, Dantzig
// pricing) plus the Lemma 6 rounding, on `chains`. "pivots" counts pivots
// per solve. A numerical failure makes solve_and_round_lp2
// throw, which aborts the whole bench run.
void run_lp2(benchmark::State& state, const core::Instance& inst,
             const std::vector<std::vector<int>>& chains) {
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const rounding::Lp2Result res = rounding::solve_and_round_lp2(inst, chains);
    pivots += res.simplex_iterations;
    benchmark::DoNotOptimize(res.t_fractional);
  }
  report_pivots(state, pivots);
}

void BM_Lp2ChainsPipeline(benchmark::State& state) {
  const int n_chains = static_cast<int>(state.range(0));
  util::Rng rng(14);
  const core::Instance inst = core::make_chains(
      n_chains, 2, 5, 4, core::MachineModel::uniform(0.3, 0.9), rng);
  run_lp2(state, inst, inst.dag().chains());
}
BENCHMARK(BM_Lp2ChainsPipeline)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The forest lower bound's LP2: every heavy-path block of a 256-job
// out-forest on the volunteer-computing classes in one program, the LP
// behind dag_solve's p90 (api::lower_bound_auto on a forest).
void BM_Lp2ForestLowerBound(benchmark::State& state) {
  util::Rng rng(1);
  const core::Instance inst = core::make_out_forest(
      256, 8, 0.1, 3, core::MachineModel::classes(), rng);
  std::vector<std::vector<int>> all;
  for (const auto& block : chains::decompose_forest(inst.dag()).blocks) {
    all.insert(all.end(), block.begin(), block.end());
  }
  run_lp2(state, inst, all);
}
BENCHMARK(BM_Lp2ForestLowerBound);

void BM_Dinic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(15);
  for (auto _ : state) {
    state.PauseTiming();
    flow::MaxFlow g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.bernoulli(0.15)) {
          g.add_edge(u, v, static_cast<flow::MaxFlow::Cap>(
                               rng.uniform_below(32)));
        }
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(g.solve(0, n - 1));
  }
}
BENCHMARK(BM_Dinic)->Arg(64)->Arg(256);

void BM_EngineSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Instance inst = bench_instance(n, 8, 16);
  auto pre = algos::SuuIOblPolicy::precompute(inst);
  std::uint64_t seed = 1;
  std::int64_t steps = 0;
  for (auto _ : state) {
    algos::SuuIOblPolicy policy(pre);
    sim::ExecConfig cfg;
    cfg.seed = ++seed;
    const sim::ExecResult r = sim::execute(inst, policy, cfg);
    steps += r.makespan;
    benchmark::DoNotOptimize(r.makespan);
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineSteps)->Arg(32)->Arg(128);

void BM_ExactDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Instance inst = bench_instance(n, 2, 17);
  for (auto _ : state) {
    algos::ExactSolver solver(inst);
    benchmark::DoNotOptimize(solver.expected_makespan());
  }
}
BENCHMARK(BM_ExactDp)->Arg(4)->Arg(6)->Arg(8);

// Cost of one registry prepare (the deterministic LP solve + rounding the
// api layer shares across replications) vs the per-policy mint afterwards.
// reuse_cache off: every iteration prepares cold instead of timing a
// PrecomputeCache hit.
void BM_RegistryPrepare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Instance inst = bench_instance(n, 8, 19);
  api::SolverOptions cold;
  cold.reuse_cache = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(api::solve_auto(inst, cold));
  }
}
BENCHMARK(BM_RegistryPrepare)->Arg(16)->Arg(64);

void BM_RegistryMintPolicy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Instance inst = bench_instance(n, 8, 20);
  const api::PreparedSolver solver = api::solve_auto(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.factory());
  }
}
BENCHMARK(BM_RegistryMintPolicy)->Arg(16)->Arg(64);

void BM_BvnDecompose(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  util::Rng rng(18);
  std::vector<double> x(static_cast<std::size_t>(m) *
                        static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform01();
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(stoch::decompose_preemptive(m, n, x, C + 0.01));
  }
}
BENCHMARK(BM_BvnDecompose)->Arg(8)->Arg(24);

// What a `solve` request with lower_bound:true computes on the indep_solve
// median class (n x 32, volunteer-computing machine classes): a cold
// prepare plus the lower bound read from the prepared solver. "lp_solves"
// counts simplex solves per iteration; the bound reuses the prepare's
// LP1(J, 1/2), so CI gates it at 1.
void BM_SolveWithLowerBound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(21);
  const core::Instance inst =
      core::make_independent(n, 32, core::MachineModel::classes(), rng);
  api::SolverOptions cold;
  cold.reuse_cache = false;
  const obs::Counter& solves =
      obs::Registry::global().counter("suu_lp_solves_total");
  const std::uint64_t solves_before = solves.value();
  for (auto _ : state) {
    const api::PreparedSolver solver = api::solve_auto(inst, cold);
    benchmark::DoNotOptimize(api::lower_bound_auto(inst, solver).value);
  }
  state.counters["lp_solves"] = benchmark::Counter(
      static_cast<double>(solves.value() - solves_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SolveWithLowerBound)->Arg(64);

}  // namespace

// BENCHMARK_MAIN with one addition: unless the caller already chose an
// output file, default to a JSON record (BENCH_perf_micro.json) next to the
// console report, so perf numbers accumulate as machine-readable artifacts.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag (or --benchmark_out=...): --benchmark_out_format alone
    // must not suppress the default output file.
    if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
        std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_perf_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
