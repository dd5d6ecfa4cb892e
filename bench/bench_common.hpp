// Shared helpers for the table/figure reproduction harnesses.
//
// All Monte-Carlo measurement goes through suu::api (SolverRegistry +
// ExperimentRunner); this header only carries the CLI conventions and the
// normalization helpers the tables share.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "core/generators.hpp"
#include "stoch/instance.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace suu::bench {

/// log2 clamped below at 1 (so ratios of tiny instances stay meaningful).
inline double lg(double x) { return std::max(1.0, std::log2(x)); }
/// log2 log2 clamped below at 1.
inline double lglg(double x) { return std::max(1.0, std::log2(lg(x))); }

/// Shared flags of every harness binary: --reps, --seed, --threads
/// (replication fan-out; 0 = default pool), --cell-threads (cross-cell
/// fan-out; 1 = sequential cells, 0 = hardware concurrency — output is
/// byte-identical either way), --json (emit machine-readable rows after
/// each table) and --solvers (list the registry and exit).
struct Harness {
  util::Args args;
  int reps;
  std::uint64_t seed;
  unsigned threads;
  unsigned cell_threads;
  bool json;

  Harness(int argc, char** argv, int default_reps, std::uint64_t default_seed)
      : args(argc, argv),
        reps(static_cast<int>(args.get_int("reps", default_reps))),
        seed(static_cast<std::uint64_t>(
            args.get_int("seed", static_cast<std::int64_t>(default_seed)))),
        threads(static_cast<unsigned>(std::max<std::int64_t>(
            0, args.get_int("threads", 0)))),
        cell_threads(static_cast<unsigned>(std::max<std::int64_t>(
            0, args.get_int("cell-threads", 1)))),
        json(args.has("json")) {
    if (args.has("solvers")) {
      const api::SolverRegistry& reg = api::SolverRegistry::global();
      for (const std::string& name : reg.names()) {
        std::cout << name << " — " << reg.summary(name) << "\n";
      }
      std::exit(0);
    }
  }

  /// Runner defaults seeded from the flags; tweak fields as needed.
  api::ExperimentRunner::Options runner_options() const {
    api::ExperimentRunner::Options opt;
    opt.seed = seed;
    opt.replications = reps;
    opt.threads = threads;
    opt.cell_threads = cell_threads;
    return opt;
  }

  /// Emit the runner's unified JSON rows when --json was passed.
  void maybe_json(const api::ExperimentRunner& runner) const {
    if (json) runner.print_json(std::cout);
  }
};

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "\n=== " << title << " ===\n" << what << "\n\n";
}

/// F-STOCH's cluster instances (bench_fig_stoch, BM_Rpmtn): rates in
/// [0.4, 2], each (job, machine) pair capable with probability 0.8 at speed
/// in [0.2, 1.2], and every job with at least one capable machine.
inline stoch::StochInstance make_cluster(util::Rng& rng, int n, int m) {
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
  return stoch::StochInstance(n, m, std::move(lambda), std::move(v));
}

}  // namespace suu::bench
