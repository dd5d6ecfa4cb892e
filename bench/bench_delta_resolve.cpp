// PERF — incremental re-solve on open handles: how much faster a delta
// chain runs through update_instance than cold-parsing and cold-preparing
// every mutated instance from scratch. The re-prepare itself is cold on
// both sides; the measured win is the skipped parse/validate/fingerprint
// of the full instance payload (update_instance applies a sparse delta to
// the already-parsed instance and swaps it onto the handle).
//
// Per family: open one handle, solve once, then walk a chain of sparse
// q-deltas. Each step times
//
//   warm:  update_instance + solve through the handle (the delta path);
//   cold:  the same mutated instance solved inline with
//          "reuse_cache": false — a full parse + cold prepare.
//
// Every warm reply is byte-compared against its cold twin
// (`mismatched_replies` must be 0 — the delta-differential suite's
// invariant, re-checked here so the bench can never "win" by drifting).
//
// Output: a human table on stdout plus google-benchmark-shaped JSON
// (entries named "DeltaResolve/<family>") written to
// BENCH_delta_resolve.json. tools/compare_bench.py gates wall time
// loosely, mismatched_replies at zero, and warm_over_cold (warm time as a
// fraction of cold — smaller is better, so a regression where the delta
// path stops paying shows up as the ratio climbing toward 1).
//
//   ./bench_delta_resolve [--steps=30] [--out=BENCH_delta_resolve.json]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/io.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace suu;

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string quoted_payload(const core::Instance& inst) {
  std::ostringstream os;
  core::write_instance(os, inst);
  std::string out;
  service::json_append_quoted(out, os.str());
  return out;
}

struct Family {
  std::string name;
  core::Instance root;
};

struct FamilyResult {
  std::string name;
  int updates = 0;
  double warm_ms = 0.0;
  double cold_ms = 0.0;
  std::uint64_t mismatched = 0;
};

/// `steps` random 2-cell q-deltas down one handle, timing warm vs cold.
FamilyResult run_family(const Family& fam, int steps) {
  FamilyResult out;
  out.name = fam.name;
  service::Engine engine;

  const service::Json opened = service::Json::parse(engine.handle(
      R"({"id":1,"method":"open_instance","params":{"instance":)" +
      quoted_payload(fam.root) + "}}"));
  if (!opened.find("ok")->as_bool("ok")) {
    std::cerr << fam.name << ": open_instance failed: " << opened.dump()
              << "\n";
    ++out.mismatched;
    return out;
  }
  const std::uint64_t handle = static_cast<std::uint64_t>(
      opened.find("result")->find("handle")->as_int64("handle"));
  // Root solve: the chain starts from a cached, pinned parent.
  engine.handle(R"({"id":2,"method":"solve","params":{"handle":)" +
                std::to_string(handle) + "}}");

  util::Rng rng(42);
  core::Instance current = fam.root;
  const std::uint64_t n_cells =
      static_cast<std::uint64_t>(current.num_jobs()) *
      static_cast<std::uint64_t>(current.num_machines());
  for (int step = 0; step < steps; ++step) {
    // Two distinct cells moved per step — small against the instance, the
    // regime incremental re-solve exists for.
    const std::uint64_t a = rng.uniform_below(n_cells);
    std::uint64_t b = rng.uniform_below(n_cells);
    while (b == a) b = rng.uniform_below(n_cells);
    core::InstanceDelta delta;
    delta.q.emplace_back(static_cast<std::int64_t>(a),
                         0.05 + 0.9 * rng.uniform01());
    delta.q.emplace_back(static_cast<std::int64_t>(b),
                         0.05 + 0.9 * rng.uniform01());
    current = core::apply_delta(current, delta);

    std::string update =
        R"({"id":3,"method":"update_instance","params":{"handle":)" +
        std::to_string(handle) + R"(,"q":{)";
    for (std::size_t i = 0; i < delta.q.size(); ++i) {
      if (i > 0) update += ',';
      update += '"' + std::to_string(delta.q[i].first) +
                "\":" + service::json_number(delta.q[i].second);
    }
    update += "}}}";
    const std::string solve_warm =
        R"({"id":4,"method":"solve","params":{"handle":)" +
        std::to_string(handle) + "}}";

    const std::int64_t w0 = now_us();
    const std::string upd_resp = engine.handle(update);
    const std::string warm_resp = engine.handle(solve_warm);
    out.warm_ms += static_cast<double>(now_us() - w0) / 1000.0;
    if (!service::Json::parse(upd_resp).find("ok")->as_bool("ok")) {
      std::cerr << fam.name << ": update failed: " << upd_resp << "\n";
      ++out.mismatched;
      break;
    }

    // Cold twin: parse + prepare from scratch, cache bypassed both ways.
    const std::string solve_cold =
        R"({"id":4,"method":"solve","params":{"instance":)" +
        quoted_payload(current) +
        R"(,"options":{"reuse_cache":false}}})";
    const std::int64_t c0 = now_us();
    const std::string cold_resp = engine.handle(solve_cold);
    out.cold_ms += static_cast<double>(now_us() - c0) / 1000.0;

    if (warm_resp != cold_resp) ++out.mismatched;
    ++out.updates;
  }
  engine.handle(R"({"id":9,"method":"close_instance","params":{"handle":)" +
                std::to_string(handle) + "}}");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 30));
  const std::string out_path =
      args.get_string("out", "BENCH_delta_resolve.json");

  // Three prepare regimes under default options: LP1 at two sizes and the
  // chain decomposition's LP2 ladder.
  std::vector<Family> families;
  {
    util::Rng gen(11);
    families.push_back(
        {"Independent/40x6",
         core::apply_delta(
             core::make_independent(
                 40, 6, core::MachineModel::uniform(0.3, 0.95), gen),
             core::InstanceDelta{})});
  }
  {
    util::Rng gen(12);
    families.push_back(
        {"Chains/6x4x4",
         core::apply_delta(
             core::make_chains(6, 4, 4, 4,
                               core::MachineModel::uniform(0.3, 0.9), gen),
             core::InstanceDelta{})});
  }
  {
    util::Rng gen(13);
    families.push_back(
        {"Independent/96x8",
         core::apply_delta(
             core::make_independent(
                 96, 8, core::MachineModel::uniform(0.3, 0.95), gen),
             core::InstanceDelta{})});
  }

  util::Table table({"family", "updates", "warm_ms", "cold_ms",
                     "warm_over_cold", "mismatched_replies"});
  std::vector<FamilyResult> results;
  for (const Family& fam : families) {
    FamilyResult r = run_family(fam, steps);
    const double ratio = r.cold_ms > 0.0 ? r.warm_ms / r.cold_ms : 0.0;
    table.add_row({r.name, std::to_string(r.updates),
                   util::fmt(r.warm_ms, 3), util::fmt(r.cold_ms, 3),
                   util::fmt(ratio, 4), std::to_string(r.mismatched)});
    results.push_back(std::move(r));
  }
  table.print(std::cout);

  std::ofstream os(out_path);
  if (!os.good()) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  os << "{\n  \"context\": {\"executable\": \"bench_delta_resolve\"},\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FamilyResult& r = results[i];
    const double ratio = r.cold_ms > 0.0 ? r.warm_ms / r.cold_ms : 0.0;
    os << "    {\"name\": \"DeltaResolve/" << r.name
       << "\", \"run_type\": \"iteration\", \"iterations\": 1"
       << ", \"real_time\": " << util::fmt(r.warm_ms, 3)
       << ", \"cpu_time\": " << util::fmt(r.warm_ms, 3)
       << ", \"time_unit\": \"ms\""
       << ", \"updates\": " << r.updates
       << ", \"cold_ms\": " << util::fmt(r.cold_ms, 3)
       << ", \"warm_over_cold\": " << util::fmt(ratio, 4)
       << ", \"mismatched_replies\": " << r.mismatched << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "\nrecorded " << out_path << "\n";

  std::uint64_t bad = 0;
  for (const FamilyResult& r : results) bad += r.mismatched;
  if (bad != 0) {
    std::cerr << "FAILURE: " << bad << " warm/cold byte mismatches\n";
    return 1;
  }
  return 0;
}
