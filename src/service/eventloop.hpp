// suu::serve epoll event loop — multiplexed serving for massive connection
// counts.
//
// The thread-per-connection TcpServer capped concurrent sessions at thread
// scalability; this loop serves thousands of connections from ONE thread.
// All sockets are nonblocking and registered with a single epoll set:
//
//   * accept    — listener fds live in the same epoll set; accepted
//                 connections enter an engine client scope
//                 (Engine::begin_client), so dropped peers release their
//                 session pins.
//   * read      — complete request lines are submitted to the Engine;
//                 request execution stays on the engine's worker pool, the
//                 loop never computes. Per-line and residual max_line_bytes
//                 caps answer with a typed parse_error and abandon the
//                 connection (resynchronizing an unframed over-long line is
//                 not possible). A final line that arrives without a
//                 trailing newline at EOF is flushed as a request.
//   * write     — replies are appended to a per-connection bounded outbound
//                 queue by engine workers (any thread), which wake the loop
//                 through an eventfd; the loop owns every socket write and
//                 drains the queue as EPOLLOUT allows. A connection whose
//                 queue exceeds max_outbound_bytes is a slow reader: it is
//                 disconnected (Engine::Stats::slow_reader_drops) rather
//                 than allowed to buffer without bound.
//   * cancel    — each connection carries a CancelToken shared with every
//                 request submitted over it. Peer death (EPOLLERR/EPOLLHUP,
//                 a failed write, a slow-reader drop) sets the token, and
//                 the engine's streamed-shard loop checks it between shards
//                 — a client that drops mid-{"stream":true} stops the
//                 remaining shard computation, not just its output
//                 (Engine::Stats::streams_cancelled).
//   * timers    — idle-session timeouts, scrape deadlines and
//                 fault-injected write delays run on a deadline-ordered
//                 timer queue ticked from the epoll_wait timeout; no
//                 per-connection poll() thread exists anywhere.
//   * scrape    — a scrape listener (add_scrape_listener) serves the
//                 Prometheus endpoint from the same loop: each accepted
//                 connection gets one close-delimited HTTP/1.0 `200 OK` +
//                 Engine::metrics_text() reply queued at accept, its
//                 request bytes are read and ignored, its write side is
//                 half-closed once the reply drains, and it closes at EOF
//                 or kScrapeDeadlineMs after accept, whichever comes first
//                 — a total deadline, not a per-read one. Scrape
//                 connections take no client scope and no fault plan; a
//                 stalled or trickling scraper costs one fd, never a
//                 thread.
//
// Determinism invariants are inherited, not re-proved: the loop feeds
// Engine::submit the same lines serve_stream would and writes reply lines
// in completion order per connection, so responses stay byte-identical to
// Engine::handle at any worker count (pinned by the transport tests and
// bench_service_concurrency's reply validation).
//
// Fault injection (service/fault.hpp) is re-expressed as loop write/close
// hooks: delay_ms becomes a timer-wheel deadline on the queue head (other
// connections keep flowing), truncate/close/exit fire after the planned
// prefix of a reply line is written, byte/line counting is unchanged.
//
// Lifetime: reply callbacks capture the connection and loop state by
// shared_ptr, so a peer that vanishes mid-request never dangles a
// callback; run() returns only after every submitted request has replied
// (its bytes delivered or discarded against a dead connection).
//
// Observability: suu_epoll_wakeups_total counts epoll_wait returns,
// suu_epoll_connections / suu_epoll_outbound_queue_bytes gauge the live
// connection count and the total queued-but-unwritten reply bytes.
#pragma once

#include <cstddef>
#include <memory>

#include "service/engine.hpp"
#include "service/fault.hpp"

namespace suu::service {

class EventLoop {
 public:
  struct Options {
    /// Per-line request cap (and residual-buffer cap); over-long input gets
    /// one typed parse_error reply and the connection is abandoned.
    std::size_t max_line_bytes = std::size_t{4} << 20;
    /// Slow-reader bound: a connection whose queued-but-unwritten reply
    /// bytes exceed this is disconnected and its streams cancelled.
    std::size_t max_outbound_bytes = std::size_t{8} << 20;
    /// Read-idle timeout in ms; 0 disables. An idle connection stops
    /// reading, drains its outbound queue, and is closed.
    int idle_timeout_ms = 0;
  };

  /// Lifetime of one scrape connection, counted from accept: it is closed
  /// at this deadline even if the peer never reads or never sends EOF.
  static constexpr int kScrapeDeadlineMs = 2000;

  /// `fault` applies with fresh per-connection state to every wire
  /// connection (never to scrape connections).
  EventLoop(Engine& engine, const Options& opt, const FaultSpec& fault = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register a listening socket. Accepted connections are served by the
  /// loop; the listener fd itself is borrowed (the caller closes it after
  /// run() returns). Call before run().
  void add_listener(int fd);

  /// Register a listening socket whose accepted connections are scrape
  /// connections (see the header comment): one metrics reply each, no
  /// request parsing. Borrowed like add_listener's fd. Call before run().
  void add_scrape_listener(int fd);

  /// Serve an already-connected fd (socketpair, inherited socket). The
  /// loop takes ownership and closes it. Call before run().
  void add_connection(int fd);

  /// Drive the loop until stop(): accepts, reads, executes via the engine,
  /// writes. Returns once stopped AND every in-flight request has replied
  /// and every surviving connection has drained its outbound queue.
  void run();

  /// Stop accepting and reading; in-flight replies still drain to their
  /// peers (the shutdown acknowledgment itself when called from the
  /// engine's shutdown hook). Safe from any thread, any number of times.
  void stop();

 private:
  struct Conn;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace suu::service
