#include "api/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace suu::api {

const util::Sampler& CellResult::metric(const std::string& name) const {
  for (const auto& [n, sampler] : metrics) {
    if (n == name) return sampler;
  }
  SUU_CHECK_MSG(false, "cell '" << instance_label << "' × '" << solver
                                << "' has no metric '" << name << "'");
}

int ExperimentRunner::add(Cell cell) {
  SUU_CHECK_MSG(cell.instance != nullptr, "cell needs an instance");
  SUU_CHECK_MSG(cell.factory != nullptr || !cell.solver.empty(),
                "cell needs a solver name or an explicit factory");
  SUU_CHECK_MSG(cell.rep_offset >= 0, "cell rep_offset must be >= 0");
  cells_.push_back(std::move(cell));
  return static_cast<int>(cells_.size()) - 1;
}

void ExperimentRunner::add_grid(
    const std::vector<
        std::pair<std::string, std::shared_ptr<const core::Instance>>>&
        instances,
    const std::vector<std::string>& solvers, const SolverOptions& opt,
    bool auto_lower_bound) {
  for (const auto& [label, inst] : instances) {
    SUU_CHECK_MSG(inst != nullptr, "grid instance '" << label << "' is null");
    const double lb =
        auto_lower_bound ? lower_bound_auto(*inst, opt.lp1).value : 0.0;
    for (const std::string& solver : solvers) {
      Cell cell;
      cell.instance_label = label;
      cell.instance = inst;
      cell.solver = solver;
      cell.solver_opt = opt;
      cell.lower_bound = lb;
      add(std::move(cell));
    }
  }
}

CellResult ExperimentRunner::run_cell(std::size_t k, const Cell& cell,
                                      util::ThreadPool* pool) const {
  const core::Instance& inst = *cell.instance;

  CellResult out;
  out.instance_label = cell.instance_label;
  out.n = inst.num_jobs();
  out.m = inst.num_machines();
  const std::uint64_t stream = cell.seed_stream != 0 ? cell.seed_stream : k + 1;
  out.seed = stream;
  out.lower_bound = cell.lower_bound;

  sim::PolicyFactory factory = cell.factory;
  if (factory) {
    out.solver = cell.factory_label.empty() ? "custom" : cell.factory_label;
  } else {
    PreparedSolver prepared =
        SolverRegistry::global().prepare(inst, cell.solver, cell.solver_opt);
    out.solver = prepared.name;
    factory = std::move(prepared.factory);
  }

  const int reps = cell.replications > 0 ? cell.replications
                                         : opt_.replications;
  SUU_CHECK_MSG(reps >= 1, "cell needs at least one replication");
  out.replications = reps;
  const bool strict =
      cell.strict < 0 ? opt_.strict_eligibility : cell.strict != 0;

  // Pre-sized per-replication slots: workers write only their own index, so
  // accumulation below is identical for any thread interleaving.
  const auto n_reps = static_cast<std::size_t>(reps);
  std::vector<double> makespans(n_reps, 0.0);
  std::vector<char> capped(n_reps, 0);
  std::vector<std::vector<double>> metric_vals(
      cell.metrics.size(), std::vector<double>(n_reps, 0.0));

  const util::Rng cell_rng = util::Rng(opt_.seed).child(stream);
  const auto rep_offset = static_cast<std::size_t>(cell.rep_offset);
  auto one = [&](std::size_t r) {
    sim::ExecConfig cfg;
    cfg.semantics = opt_.semantics;
    cfg.seed = cell_rng.child(rep_offset + r + 1).next();
    cfg.step_cap = opt_.step_cap;
    cfg.strict_eligibility = strict;
    auto policy = factory();
    SUU_CHECK(policy != nullptr);
    const sim::ExecResult res = sim::execute(inst, *policy, cfg);
    if (res.capped) {
      SUU_CHECK_MSG(opt_.skip_capped,
                    "replication " << r << " of cell '" << cell.instance_label
                                   << "' × '" << out.solver
                                   << "' hit the step cap (" << opt_.step_cap
                                   << ")");
      capped[r] = 1;
      return;
    }
    makespans[r] = static_cast<double>(res.makespan);
    for (std::size_t mi = 0; mi < cell.metrics.size(); ++mi) {
      metric_vals[mi][r] = cell.metrics[mi].extract(*policy, res);
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(n_reps, one);
  } else {
    for (std::size_t r = 0; r < n_reps; ++r) one(r);
  }

  util::OnlineStats stats;
  for (std::size_t r = 0; r < n_reps; ++r) {
    if (capped[r]) {
      ++out.capped;
      continue;
    }
    stats.add(makespans[r]);
    out.samples.add(makespans[r]);
  }
  SUU_CHECK_MSG(stats.count() > 0, "every replication of cell '"
                                       << cell.instance_label << "' × '"
                                       << out.solver << "' hit the step cap");
  out.makespan = util::make_estimate(stats);
  if (cell.lower_bound > 0.0) {
    out.ratio = out.makespan.mean / cell.lower_bound;
    out.ratio_ci = out.makespan.ci95_half / cell.lower_bound;
  }
  for (std::size_t mi = 0; mi < cell.metrics.size(); ++mi) {
    util::Sampler s;
    for (std::size_t r = 0; r < n_reps; ++r) {
      if (!capped[r]) s.add(metric_vals[mi][r]);
    }
    out.metrics.emplace_back(cell.metrics[mi].name, std::move(s));
  }
  return out;
}

const std::vector<CellResult>& ExperimentRunner::run() {
  // Cross-cell fan-out: each worker writes only its own pre-sized slot and
  // every cell's seeding derives from its index k, so results are
  // byte-identical to the sequential loop at any thread count. Replications
  // run serially inside each cell here — nesting two blocking parallel_for
  // levels on one pool could deadlock, and cells are the coarser (better)
  // unit of parallelism for grids.
  if (opt_.cell_threads != 1) {
    results_.clear();
    results_.resize(cells_.size());
    util::ThreadPool cell_pool(opt_.cell_threads);
    cell_pool.parallel_for(cells_.size(), [&](std::size_t k) {
      results_[k] = run_cell(k, cells_[k], nullptr);
    });
    return results_;
  }
  // Sequential cells: one replication pool for the whole grid (seeding is
  // index-derived, so sharing a pool across cells cannot change any
  // number); threads == 1 runs serial.
  util::ThreadPool* pool = nullptr;
  std::unique_ptr<util::ThreadPool> owned;
  if (opt_.threads == 0) {
    pool = &util::default_pool();
  } else if (opt_.threads > 1) {
    owned = std::make_unique<util::ThreadPool>(opt_.threads);
    pool = owned.get();
  }
  results_.clear();
  results_.reserve(cells_.size());
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    results_.push_back(run_cell(k, cells_[k], pool));
  }
  return results_;
}

namespace {

std::vector<std::string> metric_columns(
    const std::vector<CellResult>& results) {
  std::vector<std::string> cols;
  std::set<std::string> seen;
  for (const CellResult& r : results) {
    for (const auto& [name, sampler] : r.metrics) {
      if (seen.insert(name).second) cols.push_back(name);
    }
  }
  return cols;
}

const util::Sampler* find_metric(const CellResult& r,
                                 const std::string& name) {
  for (const auto& [n, sampler] : r.metrics) {
    if (n == name) return &sampler;
  }
  return nullptr;
}

}  // namespace

util::Table ExperimentRunner::table() const {
  const std::vector<std::string> extra = metric_columns(results_);
  const bool any_lb =
      std::any_of(results_.begin(), results_.end(),
                  [](const CellResult& r) { return r.lower_bound > 0.0; });

  std::vector<std::string> headers = {"instance", "solver", "n", "m", "reps",
                                      "E[T]"};
  if (any_lb) headers.push_back("E[T]/LB");
  for (const std::string& name : extra) headers.push_back("mean " + name);

  util::Table t(std::move(headers));
  for (const CellResult& r : results_) {
    std::vector<std::string> row = {
        r.instance_label,
        r.solver,
        std::to_string(r.n),
        std::to_string(r.m),
        std::to_string(r.replications),
        util::fmt_pm(r.makespan.mean, r.makespan.ci95_half, 2)};
    if (any_lb) {
      row.push_back(r.lower_bound > 0.0 ? util::fmt_pm(r.ratio, r.ratio_ci, 2)
                                        : "-");
    }
    for (const std::string& name : extra) {
      const util::Sampler* s = find_metric(r, name);
      row.push_back(s != nullptr && s->count() > 0 ? util::fmt(s->mean(), 2)
                                                   : "-");
    }
    t.add_row(std::move(row));
  }
  return t;
}

void ExperimentRunner::print_json(std::ostream& os) const {
  const std::vector<std::string> extra = metric_columns(results_);
  std::vector<std::string> headers = {
      "instance", "solver",   "n",  "m",     "reps",  "capped",
      "seed",     "mean",     "ci95", "stddev", "min", "max",
      "lb",       "ratio",    "ratio_ci"};
  for (const std::string& name : extra) headers.push_back(name + "_mean");

  util::Table t(std::move(headers));
  for (const CellResult& r : results_) {
    std::vector<std::string> row = {
        r.instance_label,
        r.solver,
        std::to_string(r.n),
        std::to_string(r.m),
        std::to_string(r.replications),
        std::to_string(r.capped),
        std::to_string(r.seed),
        util::fmt(r.makespan.mean, 6),
        util::fmt(r.makespan.ci95_half, 6),
        util::fmt(r.makespan.stddev, 6),
        util::fmt(r.makespan.min, 6),
        util::fmt(r.makespan.max, 6),
        util::fmt(r.lower_bound, 6),
        util::fmt(r.ratio, 6),
        util::fmt(r.ratio_ci, 6)};
    for (const std::string& name : extra) {
      const util::Sampler* s = find_metric(r, name);
      row.push_back(s != nullptr && s->count() > 0 ? util::fmt(s->mean(), 6)
                                                   : "");
    }
    t.add_row(std::move(row));
  }
  t.print_json(os);
}

}  // namespace suu::api
