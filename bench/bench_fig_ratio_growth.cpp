// F-RATIO — the paper's headline claim as a growth curve (Thm 3 vs Thm 4):
// on the identical-machines coupon-collector family the oblivious schedule
// pays a Theta(log n) repetition factor while SUU-I-SEM's doubling rounds
// cap it at O(log log n).
//
// Ablation: SUU-I-OBL *is* SUU-I-SEM with the doubling
// disabled (fixed L = 1/2 every round), so the obl column doubles as the
// no-doubling ablation. We report the ratio curves plus successive
// differences per doubling of n: logarithmic growth shows as a constant
// positive delta in the obl column; the sem deltas should shrink toward 0.
#include "bench_common.hpp"

#include "algos/suu_i.hpp"

using namespace suu;

int main(int argc, char** argv) {
  const bench::Harness h(argc, argv, /*reps=*/150, /*seed=*/4);
  const int m = static_cast<int>(h.args.get_int("m", 8));
  const double q = h.args.get_double("q", 0.7);

  bench::print_header(
      "F-RATIO: ratio growth, Thm 3 (log n) vs Thm 4 (log log n)",
      "identical(q)-machines family; ratio = E[T]/LB (Lemma 1). 'delta' = "
      "increase per doubling of n.\nExpect near-constant positive obl "
      "deltas (log growth) and shrinking sem deltas.");

  api::SolverOptions fast;
  fast.lp1.simplex_size_limit = 600;

  const std::vector<int> sizes = {8, 16, 32, 64, 128, 256, 512};
  api::ExperimentRunner runner(h.runner_options());
  std::vector<std::pair<std::string, std::shared_ptr<const core::Instance>>>
      instances;
  for (const int n : sizes) {
    util::Rng rng(h.seed + static_cast<std::uint64_t>(n));
    instances.emplace_back(
        "n=" + std::to_string(n),
        std::make_shared<const core::Instance>(core::make_independent(
            n, m, core::MachineModel::identical(q), rng)));
  }
  runner.add_grid(instances, {"suu-i-obl", "suu-i-sem"}, fast,
                  /*auto_lower_bound=*/true);
  const auto& res = runner.run();

  util::Table table({"n", "obl ratio", "obl delta", "sem ratio", "sem delta",
                     "sem rounds bound K"});
  double prev_obl = 0.0, prev_sem = 0.0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const api::CellResult& obl = res[2 * i];
    const api::CellResult& sem = res[2 * i + 1];
    table.add_row({std::to_string(sizes[i]),
                   util::fmt_pm(obl.ratio, obl.ratio_ci, 2),
                   i == 0 ? "-" : util::fmt(obl.ratio - prev_obl, 2),
                   util::fmt_pm(sem.ratio, sem.ratio_ci, 2),
                   i == 0 ? "-" : util::fmt(sem.ratio - prev_sem, 2),
                   std::to_string(algos::sem_round_bound(sizes[i], m))});
    prev_obl = obl.ratio;
    prev_sem = sem.ratio;
  }
  table.print(std::cout);
  h.maybe_json(runner);
  return 0;
}
