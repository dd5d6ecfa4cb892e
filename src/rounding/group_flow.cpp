#include "rounding/group_flow.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace suu::rounding {

sched::IntegralAssignment round_group_flow(
    const core::Instance& inst, const std::vector<int>& jobs, double L,
    double t, const std::vector<std::vector<std::pair<int, double>>>& x,
    const std::vector<flow::MaxFlow::Cap>& edge_cap, const char* lemma) {
  constexpr double kEps = 1e-12;
  constexpr int kIncapable = std::numeric_limits<int>::min();
  using Cap = flow::MaxFlow::Cap;
  const int m = inst.num_machines();

  flow::MaxFlow net(2);
  const int src = 0;
  const int sink = 1;
  std::vector<int> machine_node(static_cast<std::size_t>(m), -1);
  const Cap machine_cap =
      std::max<Cap>(static_cast<Cap>(std::ceil(6.0 * t - 1e-9)), 0);
  auto get_machine_node = [&](int i) {
    int& node = machine_node[static_cast<std::size_t>(i)];
    if (node < 0) {
      node = net.add_node();
      net.add_edge(node, sink, machine_cap);
    }
    return node;
  };

  // k_of[i] = floor(log2 ell'_ij) of the current job, once per cell.
  std::vector<int> k_of(static_cast<std::size_t>(m));
  struct Group {
    int k;
    double d;  // D_jk
  };
  std::vector<Group> groups;
  // Group -> machine edges in insertion order; job idx owns
  // [member_begin[idx], member_begin[idx + 1]).
  struct Member {
    int edge;
    int machine;
  };
  std::vector<Member> members;
  std::vector<std::size_t> member_begin(jobs.size() + 1, 0);

  std::int64_t total_demand = 0;
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    for (int i = 0; i < m; ++i) {
      const double e = inst.ell_capped(i, j, L);
      k_of[static_cast<std::size_t>(i)] =
          e <= kEps ? kIncapable : static_cast<int>(std::floor(std::log2(e)));
    }
    groups.clear();
    for (const auto& [i, val] : x[idx]) {
      const int k = k_of[static_cast<std::size_t>(i)];
      if (k == kIncapable || val <= kEps) continue;
      const auto g = std::find_if(groups.begin(), groups.end(),
                                  [k](const Group& gr) { return gr.k == k; });
      if (g == groups.end()) {
        groups.push_back({k, val});
      } else {
        g->d += val;
      }
    }
    std::sort(groups.begin(), groups.end(),
              [](const Group& a, const Group& b) { return a.k < b.k; });
    for (const Group& g : groups) {
      const auto cap = static_cast<std::int64_t>(std::floor(6.0 * g.d + 1e-9));
      if (cap <= 0) continue;
      const int node = net.add_node();
      net.add_edge(src, node, cap);
      total_demand += cap;
      // Edge to every machine in this group (paper: any i with matching k),
      // not just those with positive fractional mass.
      for (int i = 0; i < m; ++i) {
        if (k_of[static_cast<std::size_t>(i)] != g.k) continue;
        const int edge = net.add_edge(node, get_machine_node(i), edge_cap[idx]);
        members.push_back({edge, i});
      }
    }
    member_begin[idx + 1] = members.size();
  }

  const auto pushed = net.solve(src, sink);
  SUU_CHECK_MSG(pushed == total_demand,
                lemma << " flow did not saturate: " << pushed << " of "
                      << total_demand);

  sched::IntegralAssignment out(inst.num_jobs(), m);
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const int j = jobs[idx];
    for (std::size_t e = member_begin[idx]; e < member_begin[idx + 1]; ++e) {
      const auto f = net.flow_on(members[e].edge);
      if (f > 0) out.add(members[e].machine, j, f);
    }
  }

  // Numerical safety net: the theory guarantees mass >= L; if float error
  // starved a job, top it up on its best machine.
  for (const int j : jobs) {
    const double mass = out.delivered_mass(inst, j, L);
    if (mass >= L - 1e-7) continue;
    int best = -1;
    double best_e = 0.0;
    for (int i = 0; i < m; ++i) {
      const double e = inst.ell_capped(i, j, L);
      if (e > best_e) {
        best_e = e;
        best = i;
      }
    }
    SUU_CHECK(best >= 0);
    out.add(best, j, static_cast<std::int64_t>(std::ceil((L - mass) / best_e)));
  }
  return out;
}

}  // namespace suu::rounding
