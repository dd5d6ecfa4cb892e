// Cache edge cases of the update_instance path, plus the busy_handle stream
// guard driven through the TCP event loop.
//
// The contract under test (api/precompute_cache.hpp, service/engine.cpp):
// update_instance swaps the handle's instance and releases the parent's
// cache pins; the next prepare runs cold on the child. Whatever happens to
// the cache meanwhile — capacity pressure across a long update chain, an
// A->B->A fingerprint round trip, or the handle LRU-expired mid-chain —
// the handle's answers stay byte-identical to a cold parse of the mutated
// instance, and a long-lived handle pins only its current instance's keys.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/precompute_cache.hpp"
#include "core/delta.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/io.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

using service::Engine;
using service::Json;

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

core::Instance independent_instance(int n, int m, std::uint64_t seed) {
  util::Rng gen(seed);
  return core::make_independent(n, m, core::MachineModel::uniform(0.3, 0.95),
                                gen);
}

/// Open `inst` on `engine`; returns the assigned handle.
std::uint64_t open_handle(Engine& engine, const core::Instance& inst) {
  const Json resp = Json::parse(engine.handle(
      R"({"id":1,"method":"open_instance","params":{"instance":)" +
      quoted(payload(inst)) + "}}"));
  EXPECT_TRUE(resp.find("ok")->as_bool("ok")) << resp.dump();
  return static_cast<std::uint64_t>(
      resp.find("result")->find("handle")->as_int64("handle"));
}

std::string solve_via_handle(Engine& engine, std::uint64_t handle) {
  return engine.handle(R"({"id":9,"method":"solve","params":{"handle":)" +
                       std::to_string(handle) +
                       R"(,"lower_bound":true}})");
}

std::string solve_cold_inline(Engine& engine, const core::Instance& inst) {
  return engine.handle(
      R"({"id":9,"method":"solve","params":{"instance":)" +
      quoted(payload(inst)) +
      R"(,"lower_bound":true,"options":{"reuse_cache":false}}})");
}

/// RAII guard: clean slate for the process-wide cache, restored afterwards
/// so later tests (and other suites in this binary) see the default shape.
struct CacheSandbox {
  CacheSandbox() {
    api::PrecomputeCache::global().clear();
    api::PrecomputeCache::global().set_capacity(256);
    api::PrecomputeCache::global().reset_stats();
  }
  ~CacheSandbox() {
    api::PrecomputeCache::global().clear();
    api::PrecomputeCache::global().set_capacity(256);
    api::PrecomputeCache::global().reset_stats();
  }
};

// ------------------------------------------------- parent entry lifecycle

// A long-lived handle taking a stream of deltas pins only its CURRENT
// instance's prepare keys: every update releases the parent's pins, so the
// cache stays within capacity instead of growing one pinned entry per
// update. Every step still answers byte-identically to a cold parse.
TEST(DeltaCache, UpdateReleasesParentPins) {
  CacheSandbox sandbox;
  api::PrecomputeCache& cache = api::PrecomputeCache::global();
  cache.set_capacity(3);

  Engine engine;
  core::Instance current = core::apply_delta(
      independent_instance(6, 3, 401), core::InstanceDelta{});
  const std::uint64_t handle = open_handle(engine, current);
  solve_via_handle(engine, handle);
  EXPECT_EQ(cache.stats().pinned, 1u);

  for (int step = 0; step < 10; ++step) {
    const int cell = step % (current.num_jobs() * current.num_machines());
    const double q = 0.2 + 0.05 * step;
    const std::string update = engine.handle(
        R"({"id":2,"method":"update_instance","params":{"handle":)" +
        std::to_string(handle) + R"(,"q":{")" + std::to_string(cell) +
        R"(":)" + service::json_number(q) + "}}}");
    ASSERT_TRUE(Json::parse(update).find("ok")->as_bool("ok")) << update;
    core::InstanceDelta delta;
    delta.q = {{cell, q}};
    current = core::apply_delta(current, delta);
    EXPECT_EQ(solve_via_handle(engine, handle),
              solve_cold_inline(engine, current))
        << "step " << step;
  }

  const api::PrecomputeCache::Stats s = cache.stats();
  EXPECT_EQ(s.pinned, 1u) << "only the current instance's key stays pinned";
  EXPECT_LE(s.size, 3u) << "released parents must be evictable again";
  EXPECT_EQ(engine.stats().deltas_applied, 10u);
  engine.handle(R"({"id":3,"method":"close_instance","params":{"handle":)" +
                std::to_string(handle) + "}}");
  EXPECT_EQ(cache.stats().pinned, 0u);
}

// A session's pinned prepare keys are exempt from LRU eviction: flooding
// the cache far past a tiny capacity with one-shot instances must not
// evict the open handle's entry — the next handle solve is a cache hit.
TEST(DeltaCache, PinnedParentSurvivesCachePressure) {
  CacheSandbox sandbox;
  api::PrecomputeCache& cache = api::PrecomputeCache::global();
  cache.set_capacity(3);

  Engine engine;
  const core::Instance root = core::apply_delta(
      independent_instance(6, 3, 402), core::InstanceDelta{});
  const std::uint64_t handle = open_handle(engine, root);
  const std::string pinned_solve = solve_via_handle(engine, handle);
  EXPECT_GE(cache.stats().pinned, 1u);

  // Ten distinct unpinned instances churn through a capacity-3 cache.
  for (int i = 0; i < 10; ++i) {
    const core::Instance other = independent_instance(5, 2, 500 + i);
    engine.handle(R"({"id":4,"method":"solve","params":{"instance":)" +
                  quoted(payload(other)) + "}}");
  }
  EXPECT_GT(cache.stats().evictions, 0u) << "flood never exceeded capacity";

  const api::PrecomputeCache::Stats before = cache.stats();
  EXPECT_EQ(solve_via_handle(engine, handle), pinned_solve);
  const api::PrecomputeCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 1)
      << "the pinned entry should still be resident";
  EXPECT_EQ(after.misses, before.misses);
  engine.handle(R"({"id":5,"method":"close_instance","params":{"handle":)" +
                std::to_string(handle) + "}}");
}

// Fingerprints are pure functions of instance content, so a delta and its
// inverse converge back onto the ORIGINAL prepare key — the chain's first
// entry is still cached and the third solve re-hits it
// instead of preparing a third time.
TEST(DeltaCache, InverseDeltaConvergesOntoOriginalCacheEntry) {
  CacheSandbox sandbox;
  api::PrecomputeCache& cache = api::PrecomputeCache::global();
  Engine engine;
  const core::Instance root = core::apply_delta(
      independent_instance(5, 3, 403), core::InstanceDelta{});
  const double orig = root.q(1, 2);  // cell = job 2 * m 3 + machine 1 = 7
  const std::uint64_t handle = open_handle(engine, root);
  const std::string first = solve_via_handle(engine, handle);

  // A -> B: move one cell and add one edge.
  const std::string fwd = engine.handle(
      R"({"id":2,"method":"update_instance","params":{"handle":)" +
      std::to_string(handle) +
      R"(,"q":{"7":0.5},"add_edges":[[0,4]]}})");
  ASSERT_TRUE(Json::parse(fwd).find("ok")->as_bool("ok")) << fwd;
  solve_via_handle(engine, handle);

  // B -> A: restore the cell (exact bytes via json_number's round-trip
  // formatting) and delete the edge again.
  const std::string back = engine.handle(
      R"({"id":3,"method":"update_instance","params":{"handle":)" +
      std::to_string(handle) + R"(,"q":{"7":)" + service::json_number(orig) +
      R"(},"del_edges":[[0,4]]}})");
  const Json back_resp = Json::parse(back);
  ASSERT_TRUE(back_resp.find("ok")->as_bool("ok")) << back;
  char fp[24];
  std::snprintf(fp, sizeof fp, "0x%016llx",
                static_cast<unsigned long long>(root.fingerprint()));
  EXPECT_EQ(
      back_resp.find("result")->find("fingerprint")->as_string("fingerprint"),
      fp)
      << "delta + inverse delta must reproduce the original fingerprint";

  const api::PrecomputeCache::Stats before = cache.stats();
  EXPECT_EQ(solve_via_handle(engine, handle), first);
  const api::PrecomputeCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 1)
      << "the A-fingerprint entry was prepared once already";
  EXPECT_EQ(after.misses, before.misses);
  engine.handle(R"({"id":4,"method":"close_instance","params":{"handle":)" +
                std::to_string(handle) + "}}");
}

// max_open_handles LRU expiry mid-chain: updating an expired handle is
// unknown_handle (the client's cue to re-open with its locally mutated
// instance — exactly what client::ShardCoordinator::update does).
TEST(DeltaCache, HandleLruExpiryMidChainAnswersUnknownHandle) {
  CacheSandbox sandbox;
  Engine::Config cfg;
  cfg.max_open_handles = 1;
  Engine engine(cfg);
  const core::Instance a = core::apply_delta(
      independent_instance(5, 2, 404), core::InstanceDelta{});
  const core::Instance b = core::apply_delta(
      independent_instance(6, 3, 405), core::InstanceDelta{});

  const std::uint64_t h1 = open_handle(engine, a);
  const std::string upd1 = engine.handle(
      R"({"id":2,"method":"update_instance","params":{"handle":)" +
      std::to_string(h1) + R"(,"q":{"1":0.75}}})");
  ASSERT_TRUE(Json::parse(upd1).find("ok")->as_bool("ok")) << upd1;

  const std::uint64_t h2 = open_handle(engine, b);  // expires h1
  EXPECT_EQ(engine.stats().sessions_expired, 1u);

  const Json dead = Json::parse(engine.handle(
      R"({"id":3,"method":"update_instance","params":{"handle":)" +
      std::to_string(h1) + R"(,"q":{"1":0.5}}})"));
  EXPECT_FALSE(dead.find("ok")->as_bool("ok"));
  EXPECT_EQ(dead.find("error")->find("code")->as_string("code"),
            service::error_code::kUnknownHandle);

  // The surviving handle still takes deltas.
  const std::string upd2 = engine.handle(
      R"({"id":4,"method":"update_instance","params":{"handle":)" +
      std::to_string(h2) + R"(,"q":{"2":0.5}}})");
  EXPECT_TRUE(Json::parse(upd2).find("ok")->as_bool("ok")) << upd2;
  engine.handle(R"({"id":5,"method":"close_instance","params":{"handle":)" +
                std::to_string(h2) + "}}");
}

// ----------------------------------------------- busy_handle over TCP

void send_line(int fd, std::string line) {
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t w = ::write(fd, line.data() + off, line.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ADD_FAILURE() << "client write failed";
      return;
    }
    off += static_cast<std::size_t>(w);
  }
}

/// Next full line from `fd`, buffering partial reads in `buf`; empty on
/// EOF/error.
std::string read_line(int fd, std::string* buf) {
  for (;;) {
    const std::size_t pos = buf->find('\n');
    if (pos != std::string::npos) {
      std::string line = buf->substr(0, pos);
      buf->erase(0, pos + 1);
      return line;
    }
    char tmp[4096];
    const ssize_t r = ::read(fd, tmp, sizeof tmp);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return {};
    buf->append(tmp, static_cast<std::size_t>(r));
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

// A handle with a streamed estimate in flight rejects update_instance with
// busy_handle (Retryable) until the stream's terminal envelope — the
// stream's shard sequence must all come from ONE instance. Driven through
// the epoll TCP transport with the stream and the update on separate
// connections: exactly how a fan-out client would collide with a
// concurrent updater in production.
TEST(DeltaCache, BusyHandleWhileStreamInFlightOverTcp) {
  CacheSandbox sandbox;
  Engine::Config cfg;
  cfg.workers = 4;
  Engine engine(cfg);
  service::TcpServer server(engine, 0);
  ASSERT_GT(server.port(), 0);
  std::thread server_thread([&] { server.run(); });

  const int stream_fd = connect_loopback(server.port());
  const int update_fd = connect_loopback(server.port());
  std::string stream_buf;
  std::string update_buf;

  const core::Instance root = core::apply_delta(
      independent_instance(6, 3, 406), core::InstanceDelta{});
  send_line(stream_fd,
            R"({"id":"open","method":"open_instance","params":{"instance":)" +
                quoted(payload(root)) + "}}");
  const Json opened = Json::parse(read_line(stream_fd, &stream_buf));
  ASSERT_TRUE(opened.find("ok")->as_bool("ok")) << opened.dump();
  const std::uint64_t handle = static_cast<std::uint64_t>(
      opened.find("result")->find("handle")->as_int64("handle"));

  // Big enough that shards 1..3 are still computing long after shard 0's
  // envelope reaches us; the update round-trips in well under a shard.
  send_line(stream_fd,
            R"({"id":"est","method":"estimate","params":{"handle":)" +
                std::to_string(handle) +
                R"(,"replications":60000,"seed":3,"stream":true,"shards":4}})");
  const Json first_shard = Json::parse(read_line(stream_fd, &stream_buf));
  ASSERT_TRUE(first_shard.find("ok")->as_bool("ok")) << first_shard.dump();
  ASSERT_EQ(first_shard.find("seq")->as_int64("seq"), 0);

  // Stream provably in flight (its terminal line hasn't been sent): the
  // update must bounce.
  send_line(update_fd,
            R"({"id":"upd","method":"update_instance","params":{"handle":)" +
                std::to_string(handle) + R"(,"q":{"0":0.5}}})");
  const Json busy = Json::parse(read_line(update_fd, &update_buf));
  EXPECT_FALSE(busy.find("ok")->as_bool("ok"));
  EXPECT_EQ(busy.find("error")->find("code")->as_string("code"),
            service::error_code::kBusyHandle)
      << busy.dump();

  // Drain the stream to its terminal envelope; the mark is then released
  // and the same update succeeds.
  for (;;) {
    const Json env = Json::parse(read_line(stream_fd, &stream_buf));
    ASSERT_TRUE(env.find("ok")->as_bool("ok")) << env.dump();
    const Json* done = env.find("done");
    if (done != nullptr && done->as_bool("done")) break;
  }
  // The terminal envelope is written before the worker releases the mark,
  // so one more busy_handle is possible in that window — busy_handle is
  // classified Retryable for exactly this reason. Retry like a client.
  bool updated = false;
  for (int attempt = 0; attempt < 200 && !updated; ++attempt) {
    send_line(update_fd,
              R"({"id":"upd2","method":"update_instance","params":{"handle":)" +
                  std::to_string(handle) + R"(,"q":{"0":0.5}}})");
    const Json retried = Json::parse(read_line(update_fd, &update_buf));
    if (retried.find("ok")->as_bool("ok")) {
      updated = true;
      break;
    }
    ASSERT_EQ(retried.find("error")->find("code")->as_string("code"),
              service::error_code::kBusyHandle)
        << retried.dump();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(updated) << "update never succeeded after the stream drained";

  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.streams, 1u);
  EXPECT_EQ(s.deltas_applied, 1u);

  ::close(stream_fd);
  ::close(update_fd);
  server.stop();
  server_thread.join();
}

}  // namespace
}  // namespace suu
