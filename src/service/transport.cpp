#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "service/eventloop.hpp"
#include "util/check.hpp"

namespace suu::service {
namespace {

/// Outstanding-reply tracker for one transport loop: every submit is
/// balanced by a done() inside its reply callback, and the loop drains to
/// zero before its locals go out of scope.
struct Outstanding {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t count = 0;

  void add() {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
  }
  void done() {
    // Notify while still holding the lock: the draining thread destroys
    // this latch the moment it observes count == 0, so an after-unlock
    // notify could touch a destroyed condition variable.
    std::lock_guard<std::mutex> lock(mu);
    --count;
    cv.notify_all();
  }
  void drain() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return count == 0; });
  }
};

/// Bind a loopback-only (127.0.0.1) listening socket; port 0 picks an
/// ephemeral port, reported through `bound`. Throws util::CheckError on
/// socket failures.
int listen_loopback(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SUU_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(port);
  SUU_CHECK_MSG(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "bind to 127.0.0.1:" << port << " failed: " << std::strerror(errno));
  // Deep backlog: the concurrency bench opens ~1000 connections in a
  // burst, and the epoll loop accepts them all from one thread.
  SUU_CHECK_MSG(::listen(fd, 1024) == 0,
                "listen failed: " << std::strerror(errno));
  socklen_t len = sizeof addr;
  SUU_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  *bound = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

void serve_stream(Engine& engine, std::istream& in, std::ostream& out) {
  std::mutex write_mu;
  Outstanding pending;
  const std::uint64_t client = engine.begin_client();
  std::string line;
  while (!engine.stopping() && std::getline(in, line)) {
    if (!normalize_line(line)) continue;
    pending.add();
    engine.submit(
        std::move(line),
        [&](std::string&& resp, bool last) {
          {
            std::lock_guard<std::mutex> lock(write_mu);
            out << resp << '\n';
            out.flush();
          }
          if (last) pending.done();
        },
        client);
    line.clear();
  }
  pending.drain();
  engine.end_client(client);
}

TcpServer::TcpServer(Engine& engine, std::uint16_t port,
                     const FaultSpec& fault)
    : engine_(engine), fault_(fault) {
  listen_fd_ = listen_loopback(port, &port_);
  engine_.set_shutdown_hook([this] { stop(); });
}

TcpServer::~TcpServer() {
  engine_.set_shutdown_hook(nullptr);
  stop();
  for (int* fd : {&listen_fd_, &metrics_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

std::uint16_t TcpServer::listen_metrics(std::uint16_t port) {
  std::uint16_t bound = 0;
  metrics_fd_ = listen_loopback(port, &bound);
  return bound;
}

void TcpServer::run() {
  EventLoop::Options opt;
  opt.max_line_bytes = engine_.config().max_line_bytes;
  opt.max_outbound_bytes = engine_.config().max_outbound_bytes;
  opt.idle_timeout_ms = engine_.config().idle_timeout_ms;
  EventLoop loop(engine_, opt, fault_);
  loop.add_listener(listen_fd_);
  if (metrics_fd_ >= 0) loop.add_scrape_listener(metrics_fd_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;  // stop() raced ahead of run()
    loop_ = &loop;
  }
  loop.run();
  std::lock_guard<std::mutex> lock(mu_);
  loop_ = nullptr;
}

void TcpServer::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  // Wake the loop's accept path; the fds themselves are closed in the
  // destructor, after run() has returned, so a descriptor number cannot
  // be reused early.
  for (const int fd : {listen_fd_, metrics_fd_}) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  // The loop stops reading everywhere but keeps writing: queued replies —
  // the shutdown acknowledgment itself when stop() runs from the engine's
  // shutdown hook — still drain to clients before run() returns.
  if (loop_ != nullptr) loop_->stop();
}

}  // namespace suu::service
