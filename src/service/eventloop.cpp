#include "service/eventloop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace suu::service {
namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SUU_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed: " << std::strerror(errno));
  SUU_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "fcntl(F_SETFL) failed: " << std::strerror(errno));
}

/// A scrape connection's one reply. HTTP/1.0 with Connection: close is
/// delimited by EOF, so writing it at accept — without waiting for or
/// parsing the request — is a valid exchange for every scraper the
/// endpoint targets (Prometheus, curl, tools/suu_metrics).
std::string scrape_response(const std::string& body) {
  std::string resp =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n";
  resp += body;
  return resp;
}

}  // namespace

/// One multiplexed connection. Split by owner:
///
///   * immutable after setup: fd, scrape, client, cancel;
///   * loop-thread only (no lock): injector, inbuf, reading, want_write,
///     idle_gen — only the loop reads the socket, plans fault actions, and
///     talks to epoll;
///   * shared with engine workers (under mu): the outbound queue and its
///     accounting, the in-flight request count, and the dead/doomed flags.
///     `dead` is written only by the loop thread (teardown) but read by
///     workers deciding whether to enqueue; `doomed` is set by whichever
///     worker's enqueue pushes the queue past the slow-reader bound and is
///     acted on by the loop.
struct EventLoop::Conn {
  int fd = -1;
  bool scrape = false;      ///< accepted on a scrape listener
  std::uint64_t client = 0;  ///< 0 (no client scope) for scrape connections
  Engine::CancelToken cancel;

  FaultInjector injector;
  std::string inbuf;
  bool reading = true;
  bool want_write = false;
  std::uint64_t idle_gen = 0;

  std::mutex mu;
  std::deque<std::string> outq;  ///< framed reply lines, '\n' included
  std::size_t out_bytes = 0;     ///< sum of full-line sizes still queued
  std::size_t head_off = 0;      ///< bytes of the planned head prefix written
  bool head_planned = false;     ///< injector consulted for the queue head
  FaultInjector::Action head_act;
  std::int64_t head_ready_ms = 0;  ///< fault-delay deadline; 0 = write now
  std::size_t inflight = 0;        ///< submitted, final reply line pending
  bool dead = false;
  bool doomed = false;  ///< slow reader: kill at next flush
  bool dirty = false;   ///< already on the loop's dirty list (impl mu)

  explicit Conn(const FaultSpec& f) : injector(f) {}
};

struct EventLoop::Impl : std::enable_shared_from_this<EventLoop::Impl> {
  Engine& engine;
  const Options opt;
  const FaultSpec fault;

  int epfd = -1;
  int wakefd = -1;

  // Loop-thread state.
  struct Listener {
    int fd;
    bool scrape;
  };
  std::vector<Listener> listeners;  ///< borrowed fds, registered before run()
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  bool stop_applied = false;

  enum class TimerKind { kIdle, kWriteDelay, kScrapeDeadline };
  struct Timer {
    std::weak_ptr<Conn> conn;
    std::uint64_t idle_gen = 0;  ///< kIdle validity; unused otherwise
    TimerKind kind = TimerKind::kIdle;
  };
  /// Earliest-deadline-first timer queue ticked from the epoll_wait
  /// timeout; stale idle entries are invalidated by idle_gen, dead
  /// connections by the weak_ptr.
  std::multimap<std::int64_t, Timer> timers;

  // Cross-thread state.
  std::atomic<bool> stopping{false};
  std::atomic<std::size_t> inflight_total{0};
  std::mutex mu;  ///< guards dirty_ (and each Conn::dirty flag)
  std::vector<std::shared_ptr<Conn>> dirty_;

  obs::Counter& wakeups =
      obs::Registry::global().counter("suu_epoll_wakeups_total");
  obs::Gauge& conn_gauge =
      obs::Registry::global().gauge("suu_epoll_connections");
  obs::Gauge& queue_gauge =
      obs::Registry::global().gauge("suu_epoll_outbound_queue_bytes");

  Impl(Engine& e, const Options& o, const FaultSpec& f)
      : engine(e), opt(o), fault(f) {
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    SUU_CHECK_MSG(epfd >= 0,
                  "epoll_create1 failed: " << std::strerror(errno));
    wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    SUU_CHECK_MSG(wakefd >= 0, "eventfd failed: " << std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakefd;
    SUU_CHECK(::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev) == 0);
  }

  ~Impl() {
    // Connections left behind by an EventLoop destroyed without run():
    // release what add_connection/accept took (run() itself exits only
    // once conns is empty).
    for (auto& [fd, conn] : conns) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->dead = true;
        if (conn->out_bytes) {
          queue_gauge.add(-static_cast<std::int64_t>(conn->out_bytes));
        }
        conn->outq.clear();
        conn->out_bytes = 0;
      }
      engine.end_client(conn->client);
      ::close(fd);
      conn_gauge.add(-1);
    }
    conns.clear();
    if (wakefd >= 0) ::close(wakefd);
    if (epfd >= 0) ::close(epfd);
  }

  void wake() {
    const std::uint64_t one = 1;
    // eventfd writes coalesce; a full counter (EAGAIN) already wakes.
    [[maybe_unused]] const ssize_t w = ::write(wakefd, &one, sizeof one);
  }

  /// Any thread: queue `conn` for a flush pass on the loop thread.
  void mark_dirty(const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (conn->dirty) return;
      conn->dirty = true;
      dirty_.push_back(conn);
    }
    wake();
  }

  void update_epoll(const std::shared_ptr<Conn>& conn) {
    epoll_event ev{};
    ev.events = (conn->reading ? EPOLLIN : 0u) |
                (conn->want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void set_want_write(const std::shared_ptr<Conn>& conn, bool w) {
    if (conn->want_write == w) return;
    conn->want_write = w;
    update_epoll(conn);
  }

  void stop_reading(const std::shared_ptr<Conn>& conn) {
    if (!conn->reading) return;
    conn->reading = false;
    ++conn->idle_gen;  // invalidate any queued idle timer
    update_epoll(conn);
  }

  void arm_idle(const std::shared_ptr<Conn>& conn) {
    if (opt.idle_timeout_ms <= 0 || !conn->reading) return;
    ++conn->idle_gen;
    timers.emplace(now_ms() + opt.idle_timeout_ms,
                   Timer{conn, conn->idle_gen, TimerKind::kIdle});
  }

  void setup_conn(int fd, bool scrape) {
    auto conn = std::make_shared<Conn>(scrape ? FaultSpec{} : fault);
    conn->fd = fd;
    conn->scrape = scrape;
    if (!scrape) conn->client = engine.begin_client();
    conn->cancel = std::make_shared<std::atomic<bool>>(false);
    conns[fd] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    SUU_CHECK_MSG(::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0,
                  "epoll_ctl(ADD) failed: " << std::strerror(errno));
    conn_gauge.add(1);
    if (!scrape) {
      arm_idle(conn);
      return;
    }
    timers.emplace(now_ms() + kScrapeDeadlineMs,
                   Timer{conn, 0, TimerKind::kScrapeDeadline});
    enqueue(conn, scrape_response(engine.metrics_text()));
    flush(conn);
  }

  /// Close `conn` and release everything it holds. `cancel_streams` is
  /// true when the peer is gone (error/hangup, failed write, slow-reader
  /// drop, close_after fault): in-flight streamed estimates stop computing.
  /// It is false for clean teardown (EOF, idle timeout, loop stop) — a
  /// half-closed peer may still be reading replies, and by the time a
  /// graceful close runs nothing is in flight anyway.
  void teardown(const std::shared_ptr<Conn>& conn, bool cancel_streams) {
    std::size_t freed = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      conn->dead = true;
      freed = conn->out_bytes;
      conn->outq.clear();
      conn->out_bytes = 0;
      conn->head_planned = false;
    }
    if (freed) queue_gauge.add(-static_cast<std::int64_t>(freed));
    if (cancel_streams) {
      conn->cancel->store(true, std::memory_order_relaxed);
    }
    engine.end_client(conn->client);
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    ++conn->idle_gen;
    conns.erase(conn->fd);
    conn_gauge.add(-1);
  }

  void kill(const std::shared_ptr<Conn>& conn) { teardown(conn, true); }

  /// Clean close once nothing can still produce or carry bytes: reading
  /// stopped (EOF / idle / abandoned / loop stop), no request in flight,
  /// outbound queue empty.
  void try_close_if_drained(const std::shared_ptr<Conn>& conn) {
    if (conn->reading) return;
    bool drained;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      drained = !conn->dead && conn->outq.empty() && conn->inflight == 0;
    }
    if (drained) teardown(conn, false);
  }

  /// Append already-framed transport-origin bytes (the over-long-line
  /// error, a scrape reply) to the outbound queue. Engine replies take
  /// the same path through the submit callback.
  void enqueue(const std::shared_ptr<Conn>& conn, std::string&& bytes) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    conn->out_bytes += bytes.size();
    queue_gauge.add(static_cast<std::int64_t>(bytes.size()));
    conn->outq.push_back(std::move(bytes));
  }

  /// Answer an unframable over-long line once and abandon the connection:
  /// stop reading, drain what is queued, then close. In-flight requests
  /// are not cancelled — their replies still go out before the close.
  void overlong(const std::shared_ptr<Conn>& conn) {
    enqueue(conn, make_error_response(
                      Json(nullptr), error_code::kParseError,
                      "request line exceeds " +
                          std::to_string(opt.max_line_bytes) + " bytes") +
                      "\n");
    conn->inbuf.clear();
    stop_reading(conn);
    flush(conn);
  }

  void submit_line(const std::shared_ptr<Conn>& conn, std::string&& line) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      ++conn->inflight;
    }
    inflight_total.fetch_add(1, std::memory_order_relaxed);
    auto impl = shared_from_this();
    engine.submit(
        std::move(line),
        // Runs on any engine worker (or inline on admission failure). The
        // callback owns shared_ptrs to both the loop state and the
        // connection, so a peer that vanished mid-request never dangles:
        // its replies are dropped against conn->dead.
        [impl, conn](std::string&& resp, bool last) {
          bool enqueued = false;
          {
            std::lock_guard<std::mutex> lock(conn->mu);
            if (!conn->dead) {
              resp.push_back('\n');
              conn->out_bytes += resp.size();
              impl->queue_gauge.add(static_cast<std::int64_t>(resp.size()));
              conn->outq.push_back(std::move(resp));
              if (conn->out_bytes > impl->opt.max_outbound_bytes) {
                conn->doomed = true;
              }
              enqueued = true;
            }
            if (last) --conn->inflight;
          }
          if (last) {
            impl->inflight_total.fetch_sub(1, std::memory_order_relaxed);
          }
          if (enqueued || last) impl->mark_dirty(conn);
        },
        conn->client, conn->cancel);
  }

  /// Loop thread: drain the outbound queue as far as the socket, the fault
  /// plan, and the slow-reader policy allow.
  void flush(const std::shared_ptr<Conn>& conn) {
    bool graceful = false;
    bool half_close = false;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      if (conn->doomed) {
        lock.unlock();
        engine.record_slow_reader_drop();
        kill(conn);
        return;
      }
      const std::int64_t now = now_ms();
      while (!conn->outq.empty()) {
        std::string& head = conn->outq.front();
        if (!conn->head_planned) {
          // The fault injector decides how much of this line actually
          // reaches the peer and what happens afterwards; with no faults
          // it always says "all of it, nothing". delay_ms becomes a timer
          // deadline — other connections keep flowing while this one's
          // queue head waits.
          conn->head_act = conn->injector.next(head);
          conn->head_planned = true;
          conn->head_off = 0;
          conn->head_ready_ms = 0;
          if (conn->head_act.delay_ms > 0) {
            conn->head_ready_ms = now + conn->head_act.delay_ms;
            timers.emplace(conn->head_ready_ms,
                           Timer{conn, 0, TimerKind::kWriteDelay});
          }
        }
        if (conn->head_ready_ms > now) break;  // fault delay pending
        while (conn->head_off < conn->head_act.write_bytes) {
          // MSG_NOSIGNAL: a peer that closed mid-reply must surface as
          // EPIPE, not a process-killing SIGPIPE. ENOTSOCK falls back to
          // write() for pipe fds.
          ssize_t w = ::send(conn->fd, head.data() + conn->head_off,
                             conn->head_act.write_bytes - conn->head_off,
                             MSG_NOSIGNAL);
          if (w < 0 && errno == ENOTSOCK) {
            w = ::write(conn->fd, head.data() + conn->head_off,
                        conn->head_act.write_bytes - conn->head_off);
          }
          if (w < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
              lock.unlock();
              set_want_write(conn, true);
              return;
            }
            lock.unlock();
            kill(conn);  // peer gone mid-write
            return;
          }
          conn->head_off += static_cast<std::size_t>(w);
        }
        if (conn->head_act.exit_after) ::_exit(42);  // crash simulation
        const bool close_after = conn->head_act.close_after;
        queue_gauge.add(-static_cast<std::int64_t>(head.size()));
        conn->out_bytes -= head.size();
        conn->outq.pop_front();
        conn->head_planned = false;
        if (close_after) {
          lock.unlock();
          kill(conn);  // injected hard close
          return;
        }
      }
      graceful =
          conn->outq.empty() && !conn->reading && conn->inflight == 0;
      half_close = conn->scrape && conn->outq.empty();
    }
    set_want_write(conn, false);
    if (graceful) {
      teardown(conn, false);
    } else if (half_close) {
      // The scrape reply is out: signal its end, then wait for the peer's
      // EOF (or the scrape deadline) so the peer never sees a reset
      // ahead of the body.
      ::shutdown(conn->fd, SHUT_WR);
    }
  }

  void do_accept(const Listener& l) {
    for (;;) {
      const int fd =
          ::accept4(l.fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN, or listener shut down
      }
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        continue;
      }
      setup_conn(fd, l.scrape);
    }
  }

  void handle_read(const std::shared_ptr<Conn>& conn) {
    char chunk[4096];
    bool got_bytes = false;
    for (;;) {
      const ssize_t r = ::read(conn->fd, chunk, sizeof chunk);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        kill(conn);
        return;
      }
      if (r == 0) {
        // Clean EOF — possibly a half-close: the peer may still be
        // reading replies, so this is never a cancellation. A final line
        // that arrived without its trailing newline is still a request.
        stop_reading(conn);
        if (!conn->inbuf.empty()) {
          std::string line;
          line.swap(conn->inbuf);
          if (line.size() > opt.max_line_bytes) {
            overlong(conn);
            return;
          }
          if (normalize_line(line)) submit_line(conn, std::move(line));
        }
        try_close_if_drained(conn);
        return;
      }
      if (conn->scrape) continue;  // a scraper's request bytes are ignored
      got_bytes = true;
      // The bytes kept from earlier reads hold no newline, so only the new
      // chunk is searched: a multi-megabyte line costs one pass, not one
      // pass per 4 KiB read.
      std::size_t scan = conn->inbuf.size();
      conn->inbuf.append(chunk, static_cast<std::size_t>(r));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = conn->inbuf.find('\n', scan);
        if (nl == std::string::npos) break;
        std::string line = conn->inbuf.substr(start, nl - start);
        start = nl + 1;
        scan = start;
        // The cap applies to every extracted line, not just the residual
        // buffer: a complete over-long line inside one read chunk must be
        // rejected at the transport, not handed to the engine.
        if (line.size() > opt.max_line_bytes) {
          overlong(conn);
          return;
        }
        if (!normalize_line(line)) continue;
        submit_line(conn, std::move(line));
      }
      conn->inbuf.erase(0, start);
      if (conn->inbuf.size() > opt.max_line_bytes) {
        overlong(conn);
        return;
      }
    }
    if (got_bytes) arm_idle(conn);
  }

  void fire_timers() {
    const std::int64_t now = now_ms();
    while (!timers.empty() && timers.begin()->first <= now) {
      const Timer t = timers.begin()->second;
      timers.erase(timers.begin());
      auto conn = t.conn.lock();
      if (!conn || conns.find(conn->fd) == conns.end()) continue;
      if (t.kind == TimerKind::kWriteDelay) {
        flush(conn);
        continue;
      }
      if (t.kind == TimerKind::kScrapeDeadline) {
        teardown(conn, false);  // no-op if the scrape already closed
        continue;
      }
      if (t.idle_gen != conn->idle_gen || !conn->reading) continue;
      // A silent peer past the idle budget is indistinguishable from a
      // half-open connection: stop reading, drain, close — without
      // cancelling in-flight work.
      stop_reading(conn);
      try_close_if_drained(conn);
    }
  }

  int timer_timeout() const {
    if (timers.empty()) return -1;
    const std::int64_t dt = timers.begin()->first - now_ms();
    if (dt <= 0) return 0;
    return dt > 60'000 ? 60'000 : static_cast<int>(dt);
  }

  void process_dirty() {
    std::vector<std::shared_ptr<Conn>> list;
    {
      std::lock_guard<std::mutex> lock(mu);
      list.swap(dirty_);
      for (auto& c : list) c->dirty = false;
    }
    for (auto& c : list) {
      if (conns.find(c->fd) == conns.end()) continue;
      flush(c);
      if (conns.find(c->fd) != conns.end()) try_close_if_drained(c);
    }
  }

  void apply_stop() {
    stop_applied = true;
    for (const Listener& l : listeners) {
      ::epoll_ctl(epfd, EPOLL_CTL_DEL, l.fd, nullptr);
    }
    // Stop reading everywhere; surviving connections drain their queued
    // replies (the shutdown acknowledgment itself when stop() ran from the
    // engine's shutdown hook) and close as they empty.
    std::vector<std::shared_ptr<Conn>> all;
    all.reserve(conns.size());
    for (auto& [fd, conn] : conns) all.push_back(conn);
    for (auto& conn : all) {
      stop_reading(conn);
      try_close_if_drained(conn);
    }
  }

  void add_listener(int fd, bool scrape) {
    set_nonblocking(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    SUU_CHECK_MSG(::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0,
                  "epoll_ctl(ADD listener) failed: " << std::strerror(errno));
    listeners.push_back(Listener{fd, scrape});
  }

  void run() {
    epoll_event evs[64];
    for (;;) {
      if (stopping.load(std::memory_order_relaxed)) {
        if (!stop_applied) apply_stop();
        if (conns.empty() &&
            inflight_total.load(std::memory_order_relaxed) == 0) {
          break;
        }
      }
      const int n = ::epoll_wait(epfd, evs, 64, timer_timeout());
      wakeups.add();
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epfd gone; nothing recoverable
      }
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == wakefd) {
          std::uint64_t buf;
          while (::read(wakefd, &buf, sizeof buf) > 0) {
          }
          continue;
        }
        const Listener* listener = nullptr;
        for (const Listener& l : listeners) {
          if (l.fd == fd) listener = &l;
        }
        if (listener != nullptr) {
          do_accept(*listener);
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        auto conn = it->second;
        if (evs[i].events & (EPOLLERR | EPOLLHUP)) {
          // Hard peer death (RST / full close with bytes pending): both
          // directions are unusable, so in-flight streams are cancelled.
          kill(conn);
          continue;
        }
        if (evs[i].events & EPOLLIN) handle_read(conn);
        if (conns.find(fd) != conns.end() && (evs[i].events & EPOLLOUT)) {
          flush(conn);
        }
      }
      fire_timers();
      process_dirty();
    }
  }
};

EventLoop::EventLoop(Engine& engine, const Options& opt, const FaultSpec& fault)
    : impl_(std::make_shared<Impl>(engine, opt, fault)) {}

EventLoop::~EventLoop() = default;

void EventLoop::add_listener(int fd) { impl_->add_listener(fd, false); }

void EventLoop::add_scrape_listener(int fd) { impl_->add_listener(fd, true); }

void EventLoop::add_connection(int fd) {
  set_nonblocking(fd);
  impl_->setup_conn(fd, false);
}

void EventLoop::run() { impl_->run(); }

void EventLoop::stop() {
  impl_->stopping.store(true, std::memory_order_relaxed);
  impl_->wake();
}

}  // namespace suu::service
