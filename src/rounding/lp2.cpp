#include "rounding/lp2.hpp"

#include <algorithm>
#include <cmath>

#include "flow/max_flow.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "rounding/group_flow.hpp"
#include "rounding/lp1.hpp"
#include "util/check.hpp"

namespace suu::rounding {
namespace {

constexpr double kEps = 1e-12;
constexpr double kL = 1.0;  // LP2 uses a unit log-mass target

}  // namespace

Lp2Program build_lp2_program(const core::Instance& inst,
                             const std::vector<std::vector<int>>& chains) {
  // ---- Collect the job set and validate the chain partition.
  Lp2Program prog;
  std::vector<int>& jobs = prog.jobs;
  std::vector<char> seen(inst.num_jobs(), 0);
  for (const auto& chain : chains) {
    SUU_CHECK_MSG(!chain.empty(), "empty chain");
    for (const int j : chain) {
      SUU_CHECK(j >= 0 && j < inst.num_jobs());
      SUU_CHECK_MSG(!seen[j], "job " << j << " appears in two chains");
      seen[j] = 1;
      jobs.push_back(j);
    }
  }
  SUU_CHECK_MSG(!jobs.empty(), "LP2 needs at least one chain");

  // ---- Build the LP2 relaxation.
  lp::Problem& p = prog.problem;
  const int t_var = prog.t_var = p.add_var(1.0);
  std::vector<int>& d_var = prog.d_var;
  d_var.assign(inst.num_jobs(), -1);
  for (const int j : jobs) d_var[j] = p.add_var(0.0);

  // Crash basis: LP2 always admits a primal-feasible start, which the
  // simplex requires. Put each job on its best machine i* = argmax_i ell'_ij with
  // x_{i*j} = d_j = 1/ell'_{i*j} (>= 1, since ell' <= 1). Basic per job:
  // x_{i*j} on the cover row and d_j on the (i*, j) cap row (both tight),
  // the surplus of d_j >= 1 and the slacks of the job's other cap rows
  // (value d_j). Over the coupling rows: t on the most binding load or
  // chain row (t = max keeps every other slack nonnegative) and the
  // remaining slacks. No job row holds t or a coupling slack, and each
  // job's block is triangular (cover -> x_{i*j}, cap -> d_j, then one
  // slack or surplus per remaining row), so the basis is block triangular
  // over the nonsingular [t | slacks] coupling block and always installs.
  // add_row records each row's basic column beside it; kOwnSlack stands
  // for the row's own slack or surplus, numbered once num_vars is final.
  constexpr int kOwnSlack = -1;
  std::vector<int>& crash = prog.crash_basis;
  auto add_row = [&](lp::Row row, int basic) {
    crash.push_back(basic);
    p.add_row(std::move(row));
  };
  std::vector<double> load(inst.num_machines(), 0.0);
  std::vector<double> d_crash(inst.num_jobs(), 0.0);

  auto& var_of = prog.var_of;
  var_of.resize(jobs.size());
  std::vector<lp::Row> load_rows(inst.num_machines());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    lp::Row cover;
    cover.rel = lp::Rel::Ge;
    cover.rhs = kL;
    int best_i = -1;
    int best_v = -1;
    int best_cap_row = -1;
    double best_e = 0.0;
    for (int i = 0; i < inst.num_machines(); ++i) {
      const double e = inst.ell_capped(i, j, kL);
      if (e <= kEps) continue;
      const int v = p.add_var(0.0);
      var_of[idx].emplace_back(i, v);
      cover.terms.emplace_back(v, e);
      load_rows[i].terms.emplace_back(v, 1.0);
      if (e > best_e) {
        best_e = e;
        best_i = i;
        best_v = v;
        best_cap_row = static_cast<int>(p.rows.size());
      }
      // x_ij <= d_j
      lp::Row cap;
      cap.rel = lp::Rel::Le;
      cap.rhs = 0.0;
      cap.terms.emplace_back(v, 1.0);
      cap.terms.emplace_back(d_var[j], -1.0);
      add_row(std::move(cap), kOwnSlack);
    }
    SUU_CHECK_MSG(!cover.terms.empty(), "job " << j << " has no machine");
    crash[static_cast<std::size_t>(best_cap_row)] = d_var[j];
    add_row(std::move(cover), best_v);
    d_crash[j] = 1.0 / best_e;
    load[best_i] += d_crash[j];
    // d_j >= 1
    lp::Row dmin;
    dmin.rel = lp::Rel::Ge;
    dmin.rhs = 1.0;
    dmin.terms.emplace_back(d_var[j], 1.0);
    add_row(std::move(dmin), kOwnSlack);
  }
  int t_row = -1;
  double t_crash = -1.0;
  auto add_coupling = [&](lp::Row row, double activity) {
    row.terms.emplace_back(t_var, -1.0);
    row.rel = lp::Rel::Le;
    row.rhs = 0.0;
    if (activity > t_crash) {
      t_crash = activity;
      t_row = static_cast<int>(p.rows.size());
    }
    add_row(std::move(row), kOwnSlack);
  };
  for (int i = 0; i < inst.num_machines(); ++i) {
    if (load_rows[i].terms.empty()) continue;
    add_coupling(std::move(load_rows[i]), load[i]);
  }
  for (const auto& chain : chains) {
    lp::Row len;
    double length = 0.0;
    for (const int j : chain) {
      len.terms.emplace_back(d_var[j], 1.0);
      length += d_crash[j];
    }
    add_coupling(std::move(len), length);
  }
  crash[static_cast<std::size_t>(t_row)] = t_var;
  // Every row is an inequality with rhs >= 0, so row r's slack or surplus
  // is column num_vars + r.
  for (std::size_t r = 0; r < crash.size(); ++r) {
    if (crash[r] == kOwnSlack) crash[r] = p.num_vars + static_cast<int>(r);
  }
  return prog;
}

Lp2Result solve_and_round_lp2(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains) {
  Lp2Program prog = build_lp2_program(inst, chains);
  const std::vector<int>& jobs = prog.jobs;
  const std::vector<int>& d_var = prog.d_var;
  const auto& var_of = prog.var_of;
  const int t_var = prog.t_var;
  const lp::Solution sol = lp::solve_simplex(prog.problem, prog.crash_basis);
  SUU_CHECK_MSG(sol.status == lp::Status::Optimal,
                "LP2 solve failed: " << lp::to_string(sol.status));

  Lp2Result out{sched::IntegralAssignment(inst.num_jobs(),
                                          inst.num_machines()),
                std::vector<std::int64_t>(inst.num_jobs(), 1),
                sol.x[t_var],
                sol.iterations};

  // ---- Lemma 6 rounding: Lemma 2's group flow with group->machine edge
  // caps ceil(6 d*_j).
  std::vector<std::vector<std::pair<int, double>>> x(jobs.size());
  std::vector<flow::MaxFlow::Cap> edge_cap(jobs.size());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    for (const auto& [i, v] : var_of[idx]) {
      if (sol.x[v] > kEps) x[idx].emplace_back(i, sol.x[v]);
    }
    edge_cap[idx] = static_cast<flow::MaxFlow::Cap>(
        std::ceil(6.0 * sol.x[d_var[jobs[idx]]] - 1e-9));
  }
  out.assignment =
      round_group_flow(inst, jobs, kL, sol.x[t_var], x, edge_cap, "Lemma 6");

  // Surplus trim (see round_lp1): only lowers loads and chain lengths.
  out.assignment = trim_assignment(inst, jobs, kL, out.assignment);

  for (const int j : jobs) {
    out.d[j] = std::max<std::int64_t>(1, out.assignment.job_length(j));
  }
  return out;
}

}  // namespace suu::rounding
