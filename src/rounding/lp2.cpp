#include "rounding/lp2.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "flow/max_flow.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
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

  // Crash basis: LP2 always admits a primal-feasible start that skips
  // phase 1. Put each job on its best machine i* = argmax_i ell'_ij with
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
  lp::SimplexOptions sopt;
  sopt.seed_basis = std::move(prog.crash_basis);
  const lp::Solution sol = lp::solve_simplex(prog.problem, sopt);
  SUU_CHECK_MSG(sol.status == lp::Status::Optimal,
                "LP2 solve failed: " << lp::to_string(sol.status));

  Lp2Result out{sched::IntegralAssignment(inst.num_jobs(),
                                          inst.num_machines()),
                std::vector<std::int64_t>(inst.num_jobs(), 1),
                sol.x[t_var],
                sol.iterations,
                sol.phase1_iterations};

  // ---- Lemma 6 rounding: groups by floor(log2 ell'), source caps
  // floor(6 D*_jk), machine caps ceil(6 t*), group->machine edge caps
  // ceil(6 d*_j).
  flow::MaxFlow net(2);
  const int src = 0;
  const int sink = 1;
  std::vector<int> machine_node(inst.num_machines(), -1);
  const auto machine_cap =
      static_cast<flow::MaxFlow::Cap>(std::ceil(6.0 * sol.x[t_var] - 1e-9));
  auto get_machine_node = [&](int i) {
    if (machine_node[i] < 0) {
      machine_node[i] = net.add_node();
      net.add_edge(machine_node[i], sink,
                   std::max<flow::MaxFlow::Cap>(machine_cap, 0));
    }
    return machine_node[i];
  };

  struct GroupEdges {
    std::vector<int> edge_ids;
    std::vector<int> machine_ids;
  };
  std::vector<std::map<int, GroupEdges>> groups(jobs.size());
  std::int64_t total_demand = 0;
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    const auto dj_cap = static_cast<flow::MaxFlow::Cap>(
        std::ceil(6.0 * sol.x[d_var[j]] - 1e-9));
    std::map<int, double> D;
    for (const auto& [i, v] : var_of[idx]) {
      const double val = sol.x[v];
      if (val <= kEps) continue;
      const double e = inst.ell_capped(i, j, kL);
      const int k = static_cast<int>(std::floor(std::log2(e)));
      D[k] += val;
    }
    for (const auto& [k, d] : D) {
      const auto cap = static_cast<std::int64_t>(std::floor(6.0 * d + 1e-9));
      if (cap <= 0) continue;
      const int node = net.add_node();
      net.add_edge(src, node, cap);
      total_demand += cap;
      GroupEdges ge;
      for (int i = 0; i < inst.num_machines(); ++i) {
        const double e = inst.ell_capped(i, j, kL);
        if (e <= kEps) continue;
        if (static_cast<int>(std::floor(std::log2(e))) != k) continue;
        ge.edge_ids.push_back(
            net.add_edge(node, get_machine_node(i), dj_cap));
        ge.machine_ids.push_back(i);
      }
      groups[idx].emplace(k, std::move(ge));
    }
  }

  const auto pushed = net.solve(src, sink);
  SUU_CHECK_MSG(pushed == total_demand,
                "Lemma 6 flow did not saturate: " << pushed << " of "
                                                  << total_demand);

  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    for (const auto& [k, ge] : groups[idx]) {
      (void)k;
      for (std::size_t e = 0; e < ge.edge_ids.size(); ++e) {
        const auto f = net.flow_on(ge.edge_ids[e]);
        if (f > 0) out.assignment.add(ge.machine_ids[e], j, f);
      }
    }
  }

  // Top-up starved jobs (numerical guard; see round_lp1).
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    const double mass = out.assignment.delivered_mass(inst, j, kL);
    if (mass >= kL - 1e-7) continue;
    int best = -1;
    double best_e = 0.0;
    for (int i = 0; i < inst.num_machines(); ++i) {
      const double e = inst.ell_capped(i, j, kL);
      if (e > best_e) {
        best_e = e;
        best = i;
      }
    }
    SUU_CHECK(best >= 0);
    out.assignment.add(
        best, j, static_cast<std::int64_t>(std::ceil((kL - mass) / best_e)));
  }

  // Surplus trim (see round_lp1): only lowers loads and chain lengths.
  out.assignment = trim_assignment(inst, jobs, kL, out.assignment);

  for (const int j : jobs) {
    out.d[j] = std::max<std::int64_t>(1, out.assignment.job_length(j));
  }
  return out;
}

}  // namespace suu::rounding
