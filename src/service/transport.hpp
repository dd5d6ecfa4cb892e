// suu::serve transports — pumping wire-protocol bytes into an Engine.
//
// All transports speak the same line-delimited protocol and share the same
// shape: a read loop submits each complete line to the engine, replies are
// written back as they complete (possibly out of request order — the id
// field is the client's correlation handle; a streamed estimate writes
// several seq-ordered lines for one id, interleavable with other replies),
// and the loop drains every outstanding reply before returning so no
// callback can outlive its transport state.
//
//   serve_stream — std::istream/std::ostream pair; stdio mode and
//                  in-memory tests.
//   TcpServer    — loopback-only listener; every accepted connection is
//                  multiplexed onto one epoll EventLoop
//                  (service/eventloop.hpp), so concurrent session count is
//                  bounded by fds, not threads. The optional Prometheus
//                  scrape endpoint (listen_metrics) is a second listener
//                  on the same loop.
//
// Session hygiene: each wire connection runs inside an engine client scope
// (Engine::begin_client/end_client), so instance handles opened over a
// connection are released — and their PrecomputeCache pins dropped — when
// the connection ends for ANY reason: clean EOF, write error, over-long
// line, or idle timeout. A peer that vanishes without close_instance
// cannot leak pinned cache entries.
//
// Fault injection (tests and the fan-out demo only): TcpServer accepts a
// service::FaultSpec whose deterministic triggers (delay, drop after N
// bytes, truncate reply line K, _exit mid-stream) fire on the event loop's
// reply write path — see service/fault.hpp.
//
// Shutdown: when the engine processes a shutdown request its stopping()
// flag flips and its shutdown hook runs. serve_stream stops reading once
// stopping() is observed — but a read already blocked on an idle peer
// only wakes when bytes or EOF arrive, so stdio clients are expected to
// half-close after a shutdown request. TcpServer has a real wakeup: its
// hook shuts the listeners down and stops the event loop, which stops
// reading everywhere, drains queued replies (the shutdown acknowledgment
// included), and returns — one wire shutdown winds down the whole server
// without client help.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>

#include "service/engine.hpp"
#include "service/fault.hpp"

namespace suu::service {

class EventLoop;

/// Serve until EOF on `in` or engine shutdown. Responses are flushed per
/// line. Drains outstanding replies before returning. Runs inside a client
/// scope: handles opened on this stream are released when it ends.
void serve_stream(Engine& engine, std::istream& in, std::ostream& out);

/// Loopback (127.0.0.1) TCP listener over an Engine.
class TcpServer {
 public:
  /// Bind and listen; port 0 picks an ephemeral port (see port()).
  /// Installs the engine's shutdown hook so a shutdown request stops the
  /// server. Throws util::CheckError on socket failures. `fault` applies
  /// (with fresh per-connection state) to every accepted wire connection.
  TcpServer(Engine& engine, std::uint16_t port = 0,
            const FaultSpec& fault = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Bind the loopback Prometheus scrape endpoint (`suu_serve
  /// --metrics-port`) as a second listener on run()'s loop; port 0 picks
  /// an ephemeral port. Returns the bound port. Every accepted connection
  /// gets one close-delimited HTTP/1.0 `200 OK` + Engine::metrics_text()
  /// reply and is closed within EventLoop::kScrapeDeadlineMs — enough for
  /// Prometheus, curl and tools/suu_metrics, with no request parsing to
  /// harden. Call at most once, before run(). Throws util::CheckError on
  /// socket failures.
  std::uint16_t listen_metrics(std::uint16_t port = 0);

  /// Serve: every accepted connection is multiplexed onto one epoll
  /// EventLoop (nonblocking reads/writes, bounded outbound queues, stream
  /// cancellation, idle timers — see service/eventloop.hpp). The loop's
  /// limits come from the engine's Config (max_line_bytes,
  /// max_outbound_bytes, idle_timeout_ms). Returns after stop() (or
  /// engine shutdown), once every connection has drained and closed.
  void run();

  /// Stop accepting and reading; queued replies still drain, then run()
  /// returns. Safe to call from any thread, any number of times.
  void stop();

 private:
  Engine& engine_;
  FaultSpec fault_;
  int listen_fd_ = -1;
  int metrics_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mu_;  // guards loop_, stopped_
  EventLoop* loop_ = nullptr;  // run()'s loop, while run() is live
  bool stopped_ = false;
};

}  // namespace suu::service
