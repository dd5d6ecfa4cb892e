// Order statistics and means for the repo benchmark.
//
// Latency percentiles are exact order statistics over client-side samples
// (nearest rank: the smallest sample with at least q * N samples at or below
// it), never log-bucket histogram reads, whose buckets are up to 25% wide.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `v` for q in (0, 1]: the element at sorted
/// index ceil(q * N) - 1. Returns 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Median as the midpoint of the two middle elements for even N (used for
/// repeated set-up timings, where N is small). 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Geometric mean of strictly positive values; NaN if any value is not
/// positive and finite, 0 for an empty sample.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0) || !std::isfinite(x)) return std::nan("");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
