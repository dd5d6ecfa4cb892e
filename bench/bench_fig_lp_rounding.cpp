// F-LP — Lemma 2 / Lemma 6 quality: the flow rounding is O(1) against the
// fractional LP, per-job delivered mass meets the target, and two
// ablations:
//   * trim on/off — the paper's floor(6 D) construction over-delivers ~6x;
//     trimming recovers most of it without touching any guarantee.
//   * simplex vs Frank–Wolfe fractional solve — value gap and rounded-load
//     gap stay small.
#include "bench_common.hpp"

#include <limits>

#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"

using namespace suu;

namespace {

std::vector<int> all_jobs(const core::Instance& inst) {
  std::vector<int> v(static_cast<std::size_t>(inst.num_jobs()));
  for (int j = 0; j < inst.num_jobs(); ++j) v[static_cast<std::size_t>(j)] = j;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  // Deterministic LP/rounding evaluations — no Monte-Carlo cells, so only
  // the shared CLI conventions of the api-based harnesses are used here.
  const bench::Harness h(argc, argv, /*reps=*/1, /*seed=*/6);
  const std::uint64_t seed = h.seed;

  bench::print_header(
      "F-LP: Lemma 2 / Lemma 6 rounding quality + ablations",
      "'load/t*' is max machine load of the integral assignment over the "
      "fractional optimum (paper: <= ~6).\n'min mass' is the worst per-job "
      "delivered log mass over the target L (must be >= 1).");

  // ---- Lemma 2 (LP1), trim ablation and solver ablation.
  util::Table t1({"family", "n", "m", "L", "solver", "trim", "load/t*",
                  "min mass/L"});
  struct Case {
    std::string family;
    int n, m;
    double L;
    core::MachineModel model;
  };
  const std::vector<Case> cases = {
      {"uniform", 24, 6, 0.5, core::MachineModel::uniform(0.2, 0.95)},
      {"uniform", 64, 8, 0.5, core::MachineModel::uniform(0.2, 0.95)},
      {"sparse", 48, 8, 1.0, core::MachineModel::sparse(0.4, 0.3, 0.9)},
      {"identical", 64, 8, 2.0, core::MachineModel::identical(0.7)},
  };
  for (const auto& c : cases) {
    for (const bool simplex : {true, false}) {
      for (const bool trim : {true, false}) {
        util::Rng rng(seed + static_cast<std::uint64_t>(c.n));
        core::Instance inst = core::make_independent(c.n, c.m, c.model, rng);
        const auto jobs = all_jobs(inst);
        rounding::Lp1Options opt;
        opt.simplex_size_limit = simplex ? std::numeric_limits<int>::max() : 0;
        const rounding::Lp1Fractional frac =
            rounding::solve_lp1(inst, jobs, c.L, opt);
        const sched::IntegralAssignment x =
            rounding::round_lp1(inst, jobs, c.L, frac, trim);
        double min_mass = 1e300;
        for (const int j : jobs) {
          min_mass = std::min(min_mass, x.delivered_mass(inst, j, c.L));
        }
        t1.add_row({c.family, std::to_string(c.n), std::to_string(c.m),
                    util::fmt(c.L, 1),
                    simplex ? "simplex" : "frank-wolfe",
                    trim ? "on" : "off",
                    util::fmt(static_cast<double>(x.max_load()) / frac.t, 2),
                    util::fmt(min_mass / c.L, 2)});
      }
    }
  }
  t1.print(std::cout);

  // ---- Lemma 6 (LP2): loads AND chain lengths are O(t*).
  std::cout << "\nLemma 6 (chains): loads and chain lengths vs t*\n\n";
  util::Table t2({"n", "m", "chains", "t* (LP2)", "load/t*",
                  "max chain len/t*", "min mass"});
  for (const int n_chains : {4, 8, 14}) {
    util::Rng rng(seed + 900 + static_cast<std::uint64_t>(n_chains));
    core::Instance inst = core::make_chains(
        n_chains, 2, 6, 5, core::MachineModel::uniform(0.25, 0.95), rng);
    const auto chains = inst.dag().chains();
    const rounding::Lp2Result r = rounding::solve_and_round_lp2(inst, chains);
    double max_len = 0;
    for (const auto& chain : chains) {
      std::int64_t len = 0;
      for (const int j : chain) len += r.d[j];
      max_len = std::max(max_len, static_cast<double>(len));
    }
    double min_mass = 1e300;
    for (int j = 0; j < inst.num_jobs(); ++j) {
      min_mass = std::min(min_mass, r.assignment.delivered_mass(inst, j, 1.0));
    }
    t2.add_row({std::to_string(inst.num_jobs()), "5",
                std::to_string(n_chains), util::fmt(r.t_fractional, 2),
                util::fmt(static_cast<double>(r.assignment.max_load()) /
                              r.t_fractional, 2),
                util::fmt(max_len / r.t_fractional, 2),
                util::fmt(min_mass, 2)});
  }
  t2.print(std::cout);
  return 0;
}
