// F-STOCH — Appendix C / Theorem 13: STC-I for R|pmtn, p_j~exp|E[Cmax].
//
// Per instance size we report E[T_STC-I] against the expected offline
// optimum (the Lawler–Labetoulle LP solved with the realized lengths — a
// valid per-draw lower bound on any policy) and against the sequential
// baseline, plus the round usage vs the K = ceil(loglog n)+3 bound.
#include "bench_common.hpp"

#include "stoch/instance.hpp"
#include "stoch/stc_i.hpp"

using namespace suu;

int main(int argc, char** argv) {
  // The stochastic substrate has its own batched runner
  // (stoch::estimate_stoch, continuous time, not the discrete engine), so
  // only the shared CLI conventions come from the api-based harness.
  const bench::Harness h(argc, argv, /*reps=*/150, /*seed=*/9);
  const int reps = h.reps;
  const std::uint64_t seed = h.seed;

  bench::print_header(
      "F-STOCH: STC-I (Thm 13) on R|pmtn, p~exp|E[Cmax]",
      "ratio = E[T_STC-I] / E[offline OPT]; K bound = ceil(loglog n)+3. "
      "Expect bounded ratios (near-flat in n)\nand clear wins over the "
      "sequential baseline once machines can parallelize. STC-R is the\n"
      "R|restart| variant (Appendix C 'Other results'): nonpreemptive "
      "rounds, progress discarded on overrun.");

  util::Table table({"n", "m", "STC-I/offline", "STC-R/offline",
                     "seq/offline", "K", "mean rounds", "tail%"});
  struct Size {
    int n, m;
  };
  for (const Size sz :
       std::vector<Size>{{4, 2}, {8, 3}, {12, 4}, {20, 4}, {28, 6}}) {
    util::Rng rng(seed + static_cast<std::uint64_t>(sz.n));
    const stoch::StochInstance inst = bench::make_cluster(rng, sz.n, sz.m);
    const stoch::StochEstimate est =
        stoch::estimate_stoch(inst, reps, seed + 10);
    table.add_row({std::to_string(sz.n), std::to_string(sz.m),
                   util::fmt(est.stc_i.mean / est.offline.mean, 2),
                   util::fmt(est.stc_r.mean / est.offline.mean, 2),
                   util::fmt(est.sequential.mean / est.offline.mean, 2),
                   std::to_string(stoch::stc_round_bound(sz.n)),
                   util::fmt(est.mean_rounds, 2),
                   util::fmt(100.0 * est.tail_fraction, 1)});
  }
  table.print(std::cout);
  return 0;
}
