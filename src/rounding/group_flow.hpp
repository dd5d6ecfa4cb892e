// The group flow behind Lemma 2 (round_lp1) and Lemma 6
// (solve_and_round_lp2); internal to rounding/.
//
// Per job j, machines are grouped by k = floor(log2 ell'_ij), and D_jk is
// the job's fractional assignment on group k. The network is source ->
// (j, k) with capacity floor(6 D_jk) -> every machine of group k with the
// job's edge cap -> sink with capacity ceil(6 t). Groups enter in job
// order, then k ascending, and machines in index order, so Dinic routes
// the same flow on every call. The integral edge flows are the assignment;
// a job the flow left below mass L (float error only) is topped up on its
// best machine.
#pragma once

#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "flow/max_flow.hpp"
#include "sched/assignment.hpp"

namespace suu::rounding {

/// `x[idx]` lists (machine, value) for jobs[idx]; entries at or below 1e-12
/// and on machines with ell' <= 1e-12 are ignored. `edge_cap[idx]` caps the
/// group -> machine edges of jobs[idx] (MaxFlow::kInf for Lemma 2). Throws
/// if the flow does not saturate the groups, naming `lemma`.
sched::IntegralAssignment round_group_flow(
    const core::Instance& inst, const std::vector<int>& jobs, double L,
    double t, const std::vector<std::vector<std::pair<int, double>>>& x,
    const std::vector<flow::MaxFlow::Cap>& edge_cap, const char* lemma);

}  // namespace suu::rounding
