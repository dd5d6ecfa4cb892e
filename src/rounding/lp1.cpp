#include "rounding/lp1.hpp"

#include <algorithm>
#include <cmath>

#include "flow/max_flow.hpp"
#include "lp/fw_cover.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "rounding/group_flow.hpp"
#include "util/check.hpp"

namespace suu::rounding {
namespace {

constexpr double kEps = 1e-12;

void check_jobs(const core::Instance& inst, const std::vector<int>& jobs) {
  SUU_CHECK_MSG(!jobs.empty(), "LP1 needs a non-empty job set");
  std::vector<char> seen(inst.num_jobs(), 0);
  for (const int j : jobs) {
    SUU_CHECK(j >= 0 && j < inst.num_jobs());
    SUU_CHECK_MSG(!seen[j], "duplicate job in J'");
    seen[j] = 1;
  }
}

Lp1Fractional solve_with_simplex(Lp1Program prog) {
  const lp::Solution sol = lp::solve_simplex(prog.problem, prog.crash_basis);
  SUU_CHECK_MSG(sol.status == lp::Status::Optimal,
                "LP1 solve failed: " << lp::to_string(sol.status));

  Lp1Fractional frac;
  frac.t = sol.x[prog.t_var];
  frac.lower_bound = frac.t;
  frac.simplex_iterations = sol.iterations;
  frac.ftran_calls = sol.ftran_calls;
  frac.ftran_nnz = sol.ftran_nnz;
  frac.x.resize(prog.var_of.size());
  for (std::size_t idx = 0; idx < prog.var_of.size(); ++idx) {
    for (const auto& [i, v] : prog.var_of[idx]) {
      const double val = sol.x[v];
      if (val > kEps) frac.x[idx].emplace_back(i, val);
    }
  }
  return frac;
}

Lp1Fractional solve_with_fw(const core::Instance& inst,
                            const std::vector<int>& jobs, double L) {
  check_jobs(inst, jobs);
  SUU_CHECK(L > 0);
  lp::CoverSystem sys;
  sys.n_machines = inst.num_machines();
  for (const int j : jobs) {
    sys.add_job(L);
    for (int i = 0; i < inst.num_machines(); ++i) {
      const double e = inst.ell_capped(i, j, L);
      if (e > kEps) sys.add(i, e);
    }
    SUU_CHECK_MSG(sys.ptr.back() > sys.ptr[sys.ptr.size() - 2],
                  "job " << j << " has no capable machine");
  }
  const lp::FwSolution fw = lp::solve_fw_cover(sys);

  Lp1Fractional frac;
  frac.t = fw.t;
  frac.lower_bound = fw.lower_bound;
  frac.fw_iterations = fw.iterations;
  frac.x.resize(jobs.size());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    for (int k = sys.ptr[idx]; k < sys.ptr[idx + 1]; ++k) {
      const double val = fw.x[static_cast<std::size_t>(k)];
      if (val > kEps) {
        frac.x[idx].emplace_back(sys.machine[static_cast<std::size_t>(k)],
                                 val);
      }
    }
  }
  return frac;
}

}  // namespace

Lp1Program build_lp1_program(const core::Instance& inst,
                             const std::vector<int>& jobs, double L) {
  check_jobs(inst, jobs);
  SUU_CHECK(L > 0);
  Lp1Program prog;
  lp::Problem& p = prog.problem;
  const int t_var = prog.t_var = p.add_var(1.0);  // minimize t
  // Variables only for capable (ell' > 0) pairs.
  auto& var_of = prog.var_of;
  var_of.resize(jobs.size());
  std::vector<lp::Row> load_rows(inst.num_machines());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    lp::Row cover;
    cover.rel = lp::Rel::Ge;
    cover.rhs = 1.0;  // normalized by L
    for (int i = 0; i < inst.num_machines(); ++i) {
      const double e = inst.ell_capped(i, j, L);
      if (e <= kEps) continue;
      const int v = p.add_var(0.0);
      var_of[idx].emplace_back(i, v);
      cover.terms.emplace_back(v, e / L);
      load_rows[i].terms.emplace_back(v, 1.0);
    }
    SUU_CHECK_MSG(!cover.terms.empty(),
                  "job " << j << " has no capable machine");
    p.add_row(std::move(cover));
  }
  std::vector<int> load_row_of(inst.num_machines(), -1);
  for (int i = 0; i < inst.num_machines(); ++i) {
    auto& row = load_rows[i];
    if (row.terms.empty()) continue;
    row.terms.emplace_back(t_var, -1.0);
    row.rel = lp::Rel::Le;
    row.rhs = 0.0;
    load_row_of[i] = static_cast<int>(p.rows.size());
    p.add_row(std::move(row));
  }

  // Crash basis: LP1 always admits a primal-feasible starting basis, which
  // the simplex requires. Assign each job greedily to the machine
  // minimizing its resulting load (x_ij = L/ell' satisfies the cover row
  // with the surplus nonbasic) and take as basic columns the chosen x_ij
  // per cover row, t on the most-loaded machine's row (t = max load keeps
  // every other load slack nonnegative) and the remaining load slacks. The
  // basis matrix is block triangular — diagonal over the cover rows, the
  // nonsingular [t | slacks] block over the load rows — so it always
  // installs.
  std::vector<double> load(inst.num_machines(), 0.0);
  std::vector<int> chosen(jobs.size(), -1);   // var index per job
  std::vector<int> machine(jobs.size(), -1);  // its machine
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    double best_load = 0.0;
    for (const auto& [i, v] : var_of[idx]) {
      const double step = L / inst.ell_capped(i, j, L);
      if (chosen[idx] < 0 || load[i] + step < best_load) {
        best_load = load[i] + step;
        chosen[idx] = v;
        machine[idx] = i;
      }
    }
    load[machine[idx]] = best_load;
  }
  int imax = 0;
  for (int i = 1; i < inst.num_machines(); ++i) {
    if (load[i] > load[imax]) imax = i;
  }
  std::vector<int>& crash = prog.crash_basis;
  crash.assign(p.rows.size(), -1);
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    crash[idx] = chosen[idx];
  }
  // Every row is an inequality with rhs >= 0, so row r's slack is column
  // num_vars + r.
  for (int i = 0; i < inst.num_machines(); ++i) {
    const int r = load_row_of[i];
    if (r < 0) continue;
    crash[static_cast<std::size_t>(r)] = i == imax ? t_var : p.num_vars + r;
  }
  return prog;
}

Lp1Fractional solve_lp1(const core::Instance& inst,
                        const std::vector<int>& jobs, double L,
                        const Lp1Options& opt) {
  const bool use_simplex =
      static_cast<std::int64_t>(jobs.size()) * inst.num_machines() <=
      opt.simplex_size_limit;
  return use_simplex ? solve_with_simplex(build_lp1_program(inst, jobs, L))
                     : solve_with_fw(inst, jobs, L);
}

sched::IntegralAssignment trim_assignment(
    const core::Instance& inst, const std::vector<int>& jobs, double L,
    const sched::IntegralAssignment& x) {
  sched::IntegralAssignment out(inst.num_jobs(), inst.num_machines());
  std::vector<char> listed(inst.num_jobs(), 0);
  for (const int j : jobs) listed[static_cast<std::size_t>(j)] = 1;
  for (int j = 0; j < inst.num_jobs(); ++j) {
    if (!listed[static_cast<std::size_t>(j)]) {
      for (const auto& [i, s] : x.steps_for(j)) out.add(i, j, s);
      continue;
    }
    auto entries = x.steps_for(j);
    std::sort(entries.begin(), entries.end(),
              [&](const auto& a, const auto& b) {
                return inst.ell_capped(a.first, j, L) <
                       inst.ell_capped(b.first, j, L);
              });
    double mass = x.delivered_mass(inst, j, L);
    for (auto& [i, steps] : entries) {
      const double e = inst.ell_capped(i, j, L);
      std::int64_t removable = steps;
      if (e > 1e-12) {
        removable = std::min<std::int64_t>(
            steps,
            static_cast<std::int64_t>(std::floor((mass - L) / e + 1e-9)));
        removable = std::max<std::int64_t>(0, removable);
      }
      mass -= e * static_cast<double>(removable);
      if (steps - removable > 0) out.add(i, j, steps - removable);
    }
  }
  return out;
}

sched::IntegralAssignment round_lp1(const core::Instance& inst,
                                    const std::vector<int>& jobs, double L,
                                    const Lp1Fractional& frac, bool trim) {
  check_jobs(inst, jobs);
  SUU_CHECK(static_cast<std::size_t>(frac.x.size()) == jobs.size());
  sched::IntegralAssignment x = round_group_flow(
      inst, jobs, L, frac.t, frac.x,
      std::vector<flow::MaxFlow::Cap>(jobs.size(), flow::MaxFlow::kInf),
      "Lemma 2");
  if (!trim) return x;
  return trim_assignment(inst, jobs, L, x);
}

Lp1Schedule build_lp1_schedule(const core::Instance& inst,
                               const std::vector<int>& jobs, double L,
                               const Lp1Options& opt) {
  Lp1Schedule out{sched::IntegralAssignment(inst.num_jobs(),
                                            inst.num_machines()),
                  sched::ObliviousSchedule(inst.num_machines()), 0.0, 0.0};
  const Lp1Fractional frac = solve_lp1(inst, jobs, L, opt);
  out.t_fractional = frac.t;
  out.lower_bound = frac.lower_bound;
  out.assignment = round_lp1(inst, jobs, L, frac);
  out.schedule = sched::ObliviousSchedule::from_assignment(out.assignment);
  return out;
}

}  // namespace suu::rounding
