// Delta-differential oracle: random delta chains applied to open handles
// through the update_instance wire method must leave the handle answering
// solve/estimate BYTE-identically to a cold parse of the fully mutated
// instance — across both LP1 solvers (lp1_simplex_size_limit 0 forces
// Frank–Wolfe, 1000000000 the simplex, the default picks by size). This is
// the pin that keeps the delta path honest: skipping the re-parse of the full
// payload may only change *how fast* a handle answers, never a single
// output byte.
//
// Instance count comes from SUU_DIFFERENTIAL_INSTANCES (default 200; the
// nightly CI job runs tens of thousands). Each trial:
//
//   1. generates a root instance (independent / chains / out-forest,
//      round-robin by trial) and canonicalizes it with apply_delta(root,
//      {}) so fingerprints of the delta chain converge (core/delta.hpp);
//   2. opens a handle on a shared Engine and walks a random chain of 1-3
//      deltas (q edits, edge adds/deletes), checking after every
//      update_instance that the wire fingerprint equals the locally
//      applied apply_delta fingerprint;
//   3. byte-compares solve and estimate through the mutated handle against
//      the same requests with the final instance inlined and
//      "reuse_cache": false — a cold prepare that cannot be served by
//      anything the handle's chain cached.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/io.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

long instance_budget() {
  long v = 200;
  if (const char* env = std::getenv("SUU_DIFFERENTIAL_INSTANCES")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') v = parsed;
  }
  return std::clamp(v, 10L, 10'000'000L);
}

std::string payload(const core::Instance& inst) {
  std::ostringstream os;
  core::write_instance(os, inst);
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out;
  service::json_append_quoted(out, s);
  return out;
}

std::string fp_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

core::Instance root_instance(long trial, util::Rng& rng) {
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
  util::Rng gen(seed);
  switch (trial % 3) {
    case 0:
      return core::make_independent(4 + static_cast<int>(rng.uniform_below(6)),
                                    2 + static_cast<int>(rng.uniform_below(3)),
                                    core::MachineModel::uniform(0.3, 0.95),
                                    gen);
    case 1:
      return core::make_chains(2 + static_cast<int>(rng.uniform_below(2)), 2, 4,
                               2 + static_cast<int>(rng.uniform_below(2)),
                               core::MachineModel::uniform(0.3, 0.9), gen);
    default:
      return core::make_out_forest(5 + static_cast<int>(rng.uniform_below(5)),
                                   2 + static_cast<int>(rng.uniform_below(2)),
                                   0.4, 3,
                                   core::MachineModel::uniform(0.3, 0.9), gen);
  }
}

std::vector<std::pair<int, int>> dag_edges(const core::Instance& inst) {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < inst.num_jobs(); ++u) {
    for (int v : inst.dag().succs(u)) edges.emplace_back(u, v);
  }
  return edges;
}

/// A random delta that is valid against `base` (retried until apply_delta
/// accepts it); `*next` receives the locally mutated instance.
core::InstanceDelta random_delta(const core::Instance& base, util::Rng& rng,
                                 core::Instance* next) {
  const int n = base.num_jobs();
  const int m = base.num_machines();
  for (int attempt = 0; attempt < 64; ++attempt) {
    core::InstanceDelta delta;
    const int n_q = 1 + static_cast<int>(rng.uniform_below(3));
    for (int k = 0; k < n_q; ++k) {
      const std::int64_t cell =
          static_cast<std::int64_t>(rng.uniform_below(static_cast<std::uint64_t>(n) * m));
      // Keep values clear of 0 so "every job keeps a capable machine"
      // cannot be violated by the q edits alone.
      const double v = 0.05 + 0.9 * rng.uniform01();
      delta.q.emplace_back(cell, v);
    }
    const std::vector<std::pair<int, int>> edges = dag_edges(base);
    if (!edges.empty() && rng.bernoulli(0.5)) {
      delta.del_edges.push_back(
          edges[rng.uniform_below(edges.size())]);
    }
    if (n >= 2 && rng.bernoulli(0.5)) {
      // u < v keeps the addition acyclic for the index-ordered generators;
      // duplicates (vs base or vs del re-add) are rejected by apply_delta
      // and retried.
      const int u = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(n - 1)));
      const int v =
          u + 1 + static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(n - 1 - u)));
      delta.add_edges.emplace_back(u, v);
    }
    try {
      core::Instance mutated = core::apply_delta(base, delta);
      *next = std::move(mutated);
      return delta;
    } catch (const core::DeltaError&) {
      continue;  // duplicate cell / duplicate edge / missing edge: re-roll
    }
  }
  // 64 rejections in a row on instances this small means the generator is
  // broken, not unlucky.
  ADD_FAILURE() << "could not generate a valid delta in 64 attempts";
  *next = core::apply_delta(base, core::InstanceDelta{});
  return core::InstanceDelta{};
}

std::string update_request(long id, std::uint64_t handle,
                           const core::InstanceDelta& delta) {
  std::string req = "{\"id\":" + std::to_string(id) +
                    ",\"method\":\"update_instance\",\"params\":{\"handle\":" +
                    std::to_string(handle);
  if (!delta.q.empty()) {
    req += ",\"q\":{";
    for (std::size_t i = 0; i < delta.q.size(); ++i) {
      if (i > 0) req += ',';
      req += '"' + std::to_string(delta.q[i].first) +
             "\":" + service::json_number(delta.q[i].second);
    }
    req += '}';
  }
  const auto edge_list = [](const std::vector<std::pair<int, int>>& edges) {
    std::string out = "[";
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i > 0) out += ',';
      out += '[' + std::to_string(edges[i].first) + ',' +
             std::to_string(edges[i].second) + ']';
    }
    return out + ']';
  };
  if (!delta.add_edges.empty()) {
    req += ",\"add_edges\":" + edge_list(delta.add_edges);
  }
  if (!delta.del_edges.empty()) {
    req += ",\"del_edges\":" + edge_list(delta.del_edges);
  }
  return req + "}}";
}

const char* kLp1Limits[] = {"", R"("lp1_simplex_size_limit":0)",
                            R"("lp1_simplex_size_limit":1000000000)"};

TEST(DeltaDifferential, UpdatedHandleMatchesColdParseBytes) {
  const long budget = instance_budget();
  service::Engine engine;
  util::Rng rng(20260807);
  long updates = 0;

  for (long trial = 0; trial < budget; ++trial) {
    // Canonicalize: generators insert edges in arbitrary order, the delta
    // applier rebuilds sorted by (u, v); start from the sorted twin so the
    // wire fingerprints match the local ones along the whole chain.
    const core::Instance root =
        core::apply_delta(root_instance(trial, rng), core::InstanceDelta{});
    // The options under test, and the same with reuse_cache:false for the
    // cold reference.
    const std::string opts = kLp1Limits[trial % 3];
    const std::string cold_opts = std::string(R"("reuse_cache":false)") +
                                  (opts.empty() ? "" : ",") + opts;

    const auto H = [&](const std::string& line) { return engine.handle(line); };
    const service::Json opened = service::Json::parse(H(
        R"({"id":1,"method":"open_instance","params":{"instance":)" +
        quoted(payload(root)) + "}}"));
    ASSERT_TRUE(opened.find("ok")->as_bool("ok")) << opened.dump();
    const std::uint64_t handle = static_cast<std::uint64_t>(
        opened.find("result")->find("handle")->as_int64("handle"));

    // Solve through the (not yet updated) handle once so the root's
    // prepare is cached and pinned before the chain starts.
    H(R"({"id":8,"method":"solve","params":{"handle":)" +
      std::to_string(handle) + R"(,"options":{)" + opts + "}}}");

    core::Instance current = root;
    const int chain = 1 + static_cast<int>(rng.uniform_below(3));
    for (int step = 0; step < chain; ++step) {
      core::Instance next = current;
      const core::InstanceDelta delta = random_delta(current, rng, &next);
      const service::Json resp = service::Json::parse(
          H(update_request(2 + step, handle, delta)));
      ASSERT_TRUE(resp.find("ok")->as_bool("ok"))
          << "trial " << trial << " step " << step << ": " << resp.dump();
      // The wire's fingerprint of the installed instance must equal the
      // locally applied delta's — same mutation, same canonical edge order.
      EXPECT_EQ(
          resp.find("result")->find("fingerprint")->as_string("fingerprint"),
          fp_hex(next.fingerprint()))
          << "trial " << trial << " step " << step;
      EXPECT_EQ(resp.find("result")->find("parent")->as_string("parent"),
                fp_hex(current.fingerprint()));
      current = std::move(next);
      ++updates;

      // Per-step oracle: the re-prepared handle vs a cold parse of the
      // mutated instance, with reuse_cache:false so the reference prepare
      // cannot be served by anything the handle's chain cached.
      const std::string step_text = quoted(payload(current));
      const std::string handle_solve = H(
          R"({"id":9,"method":"solve","params":{"handle":)" +
          std::to_string(handle) + R"(,"lower_bound":true,"options":{)" +
          opts + "}}}");
      const std::string cold_solve = H(
          R"({"id":9,"method":"solve","params":{"instance":)" + step_text +
          R"(,"lower_bound":true,"options":{)" + cold_opts +
          "}}}");
      EXPECT_EQ(handle_solve, cold_solve)
          << "trial " << trial << " step " << step;
    }

    const std::string final_text = quoted(payload(current));
    const std::string est_tail =
        R"(,"replications":20,"seed":)" + std::to_string(100 + trial);
    const std::string handle_est = H(
        R"({"id":9,"method":"estimate","params":{"handle":)" +
        std::to_string(handle) + est_tail + R"(,"options":{)" + opts + "}}}");
    const std::string cold_est = H(
        R"({"id":9,"method":"estimate","params":{"instance":)" + final_text +
        est_tail + R"(,"options":{)" + cold_opts + "}}}");
    EXPECT_EQ(handle_est, cold_est) << "trial " << trial;

    engine.handle(R"({"id":99,"method":"close_instance","params":{"handle":)" +
                  std::to_string(handle) + "}}");
    // One mismatch is a real determinism bug, not noise — later trials
    // would only repeat it.
    if (::testing::Test::HasFailure()) break;
  }

  const service::Engine::Stats s = engine.stats();
  EXPECT_EQ(s.deltas_applied, static_cast<std::uint64_t>(updates));
  std::printf("[differential] %ld delta chains (%ld updates)\n", budget,
              updates);
}

}  // namespace
}  // namespace suu
