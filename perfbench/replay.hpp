// In-process half of the traced run: the workload's own inputs replayed
// through the public function of each layer, each call timed from outside
// with std::chrono::steady_clock, plus the process's LP counters around the
// calls a cold solve request makes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// Per-layer metrics (see perfbench/README.md for the table): p50/p90 of
/// every timing and totals of every count. `lines` are request lines of
/// the timed stream, for the service.parse_request replay.
std::map<std::string, double> replay_layers(
    const Workload& w, const std::vector<std::string>& lines);

}  // namespace perfbench
