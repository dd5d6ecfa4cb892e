#include "stoch/lawler_labetoulle.hpp"

#include <algorithm>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"

namespace suu::stoch {
namespace {

// The LP alone: C*, the timetable x and the pivot counts; no slices.
PreemptiveSchedule solve_timetable(const StochInstance& inst,
                                   const std::vector<int>& jobs,
                                   const std::vector<double>& p) {
  const int m = inst.num_machines();
  const int k = static_cast<int>(jobs.size());
  SUU_CHECK_MSG(k >= 1, "empty job set");
  SUU_CHECK(p.size() == jobs.size());

  lp::Problem prob;
  const int c_var = prob.add_var(1.0);

  // Crash basis: put each job on its fastest machine i* = argmax_i v_ij
  // (lowest i on ties) with x_{i*j} = p_j / v_{i*j}, basic on the job's
  // work row (tight; its surplus nonbasic). The job-parallelism and
  // machine-load slacks are basic, except on the most binding of those rows
  // (largest x_{i*j} or machine load), where C = that activity takes the
  // slack's place and keeps every other slack nonnegative. Each work row
  // holds exactly one basic column and no coupling column, so the basis is
  // block triangular over the nonsingular [C | slacks] coupling block and
  // always installs. add_row records each row's basic column beside it;
  // kOwnSlack stands for the row's own slack or surplus, numbered once
  // num_vars is final.
  constexpr int kOwnSlack = -1;
  std::vector<int> crash;
  auto add_row = [&](lp::Row row, int basic) {
    crash.push_back(basic);
    prob.add_row(std::move(row));
  };
  std::vector<double> load(static_cast<std::size_t>(m), 0.0);
  int c_row = -1;
  double c_crash = -1.0;
  auto note_activity = [&](double activity) {
    if (activity > c_crash) {
      c_crash = activity;
      c_row = static_cast<int>(prob.rows.size());
    }
  };

  std::vector<std::vector<std::pair<int, int>>> var_of(jobs.size());
  std::vector<lp::Row> machine_rows(m);
  for (int idx = 0; idx < k; ++idx) {
    const int j = jobs[static_cast<std::size_t>(idx)];
    const double pj = p[static_cast<std::size_t>(idx)];
    SUU_CHECK(pj >= 0);
    lp::Row workr;
    workr.rel = lp::Rel::Ge;
    workr.rhs = pj;
    lp::Row job_par;
    job_par.rel = lp::Rel::Le;
    job_par.rhs = 0.0;
    int best_i = -1;
    int best_var = -1;
    double best_v = 0.0;
    for (int i = 0; i < m; ++i) {
      const double v = inst.speed(i, j);
      if (v <= 0) continue;
      const int var = prob.add_var(0.0);
      var_of[static_cast<std::size_t>(idx)].emplace_back(i, var);
      workr.terms.emplace_back(var, v);
      job_par.terms.emplace_back(var, 1.0);
      machine_rows[i].terms.emplace_back(var, 1.0);
      if (v > best_v) {
        best_v = v;
        best_i = i;
        best_var = var;
      }
    }
    SUU_CHECK(!workr.terms.empty());
    const double x_crash = pj / best_v;
    load[static_cast<std::size_t>(best_i)] += x_crash;
    add_row(std::move(workr), best_var);
    job_par.terms.emplace_back(c_var, -1.0);
    note_activity(x_crash);
    add_row(std::move(job_par), kOwnSlack);
  }
  for (int i = 0; i < m; ++i) {
    auto& row = machine_rows[i];
    if (row.terms.empty()) continue;
    row.terms.emplace_back(c_var, -1.0);
    row.rel = lp::Rel::Le;
    row.rhs = 0.0;
    note_activity(load[static_cast<std::size_t>(i)]);
    add_row(std::move(row), kOwnSlack);
  }
  crash[static_cast<std::size_t>(c_row)] = c_var;
  // Every row is an inequality with rhs >= 0, so row r's slack or surplus
  // is column num_vars + r.
  for (std::size_t r = 0; r < crash.size(); ++r) {
    if (crash[r] == kOwnSlack) crash[r] = prob.num_vars + static_cast<int>(r);
  }

  const lp::Solution sol = lp::solve_simplex(prob, crash);
  SUU_CHECK_MSG(sol.status == lp::Status::Optimal,
                "R|pmtn|Cmax LP failed: " << lp::to_string(sol.status));

  PreemptiveSchedule out;
  out.makespan = sol.x[c_var];
  out.simplex_iterations = sol.iterations;
  out.x.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 0.0);
  for (int idx = 0; idx < k; ++idx) {
    for (const auto& [i, var] : var_of[static_cast<std::size_t>(idx)]) {
      out.x[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
            static_cast<std::size_t>(idx)] = std::max(0.0, sol.x[var]);
    }
  }
  return out;
}

}  // namespace

PreemptiveSchedule solve_rpmtn(const StochInstance& inst,
                               const std::vector<int>& jobs,
                               const std::vector<double>& p) {
  PreemptiveSchedule out = solve_timetable(inst, jobs, p);
  out.slices = decompose_preemptive(inst.num_machines(),
                                    static_cast<int>(jobs.size()), out.x,
                                    out.makespan);
  return out;
}

double rpmtn_makespan(const StochInstance& inst, const std::vector<int>& jobs,
                      const std::vector<double>& p) {
  return solve_timetable(inst, jobs, p).makespan;
}

}  // namespace suu::stoch
