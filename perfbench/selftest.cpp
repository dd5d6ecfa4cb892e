// perfbench_selftest — tests of the benchmark's own helpers: exact
// percentiles, median, geomean, and seeded request generation (the same
// seed gives byte-identical lines, another seed gives different ones).
// Exits nonzero if any check fails; run.py runs it before every benchmark
// run.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    std::cerr << "FAIL: " << what << "\n";
    ++g_failures;
  }
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100..1, unsorted
  expect(percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(v, 1.0) == 100.0, "p100 is the max");
  expect(percentile({7.0}, 0.9) == 7.0, "single sample");
  expect(percentile({}, 0.5) == 0.0, "empty sample");
  // Nearest rank: p90 of 11 samples is the 10th smallest (ceil(9.9)).
  std::vector<double> e;
  for (int i = 0; i < 11; ++i) e.push_back(i);
  expect(percentile(e, 0.9) == 9.0, "p90 of 0..10 is 9");
  expect(percentile({3.0, 1.0}, 0.5) == 1.0, "p50 of two is the lower");
}

void test_median_geomean() {
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  expect(std::fabs(geomean({1.0, 4.0, 16.0}) - 4.0) < 1e-12, "geomean");
  expect(std::fabs(geomean({2.5}) - 2.5) < 1e-12, "geomean of one");
  expect(std::isnan(geomean({1.0, 0.0})), "geomean rejects zero");
  expect(std::isnan(geomean({1.0, -2.0})), "geomean rejects negatives");
}

/// Every line a workload generates for one seed, in a fixed order.
std::vector<std::string> lines_of(const std::string& name, std::uint64_t seed) {
  const auto w = Workload::make(name, seed);
  std::vector<std::string> out;
  for (int c = 0; c < w->connections(); ++c) {
    for (const Request& r : w->opens(c)) out.push_back(r.line);
    for (const Request& r : w->warmup(c)) out.push_back(r.line);
    const auto periods = 2 * static_cast<std::uint64_t>(w->block_size());
    for (std::uint64_t k = 0; k < periods; ++k) {
      if (!w->shared_stream() || c == 0) out.push_back(w->timed(c, k).line);
    }
  }
  for (const Request& r : w->probe()) out.push_back(r.line);
  return out;
}

void test_generator(const std::string& name) {
  const std::vector<std::string> a = lines_of(name, 11);
  const std::vector<std::string> b = lines_of(name, 11);
  const std::vector<std::string> c = lines_of(name, 12);
  expect(!a.empty(), name + ": generates lines");
  expect(a == b, name + ": same seed, byte-identical lines");
  expect(a.size() == c.size(), name + ": seed does not change the shape");
  std::size_t differ = 0;
  for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (a[i] != c[i]) ++differ;
  }
  expect(differ > 0, name + ": another seed, different lines");

  // Ids are unique across every line of one run.
  const auto w = Workload::make(name, 11);
  expect(w != nullptr, name + ": known workload");
  std::vector<std::uint64_t> ids;
  for (int conn = 0; conn < w->connections(); ++conn) {
    for (const Request& r : w->opens(conn)) ids.push_back(r.id);
    for (const Request& r : w->warmup(conn)) ids.push_back(r.id);
    for (std::uint64_t k = 0; k < 64; ++k) {
      if (!w->shared_stream() || conn == 0) ids.push_back(w->timed(conn, k).id);
    }
  }
  for (const Request& r : w->probe()) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  expect(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
         name + ": request ids are unique");

  // Stratification: every block holds the same class multiset.
  if (w->shared_stream()) {
    const auto bs = static_cast<std::uint64_t>(w->block_size());
    std::vector<int> first(w->class_names().size(), 0);
    std::vector<int> third(w->class_names().size(), 0);
    for (std::uint64_t k = 0; k < bs; ++k) {
      ++first[static_cast<std::size_t>(w->timed(0, k).size_class)];
      ++third[static_cast<std::size_t>(w->timed(0, 2 * bs + k).size_class)];
    }
    expect(first == third, name + ": blocks are stratified");
  }
}

}  // namespace

int main() {
  test_percentile();
  test_median_geomean();
  for (const std::string& name : Workload::names()) test_generator(name);
  expect(Workload::make("no_such_workload", 1) == nullptr,
         "unknown workload rejected");
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_selftest: all checks passed\n";
  return 0;
}
