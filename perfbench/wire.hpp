// Wire side of the repo benchmark: the suu_serve daemon under test, the
// closed-loop TCP client, and the per-reply oracle.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/spawn.hpp"
#include "client/transport.hpp"
#include "service/json.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one reply told the oracle.
struct Checked {
  bool ok = false;
  std::string error;  ///< why the reply failed the check (empty when ok)
  double mean = 0.0;
  double lower_bound = 0.0;
};

/// Check one reply line against its request: parses as JSON, "ok":true,
/// the id echoed, result n/m matching the request, and a finite positive
/// mean / lower_bound where the request asks for one.
Checked check_reply(const Request& req, const std::string& reply);
/// check_reply on a reply already parsed into `j`.
Checked check_parsed(const Request& req, const suu::service::Json& j,
                     const std::string& reply);

/// One completed request of a closed loop.
struct Completed {
  std::uint64_t id = 0;
  int size_class = -1;
  double latency_ms = 0.0;  ///< send start to the reply's final newline
  double done_s = 0.0;      ///< completion time, seconds since loop start
  double mean = 0.0;
  double lower_bound = 0.0;
};

struct LoopResult {
  std::vector<Completed> done;  ///< replies that passed the check
  std::uint64_t attempted = 0;  ///< requests sent
  std::uint64_t failed = 0;     ///< error replies, bad replies, lost replies
  std::vector<std::string> errors;  ///< the first few failure reasons
  double wall_s = 0.0;  ///< loop start to the last passing reply
  /// Raw reply bytes of the ids `keep` selected.
  std::map<std::uint64_t, std::string> kept;
};

/// Supplies connection `conn`'s next request, or nothing when that
/// connection is done. Called only from that connection's thread.
using NextRequest = std::function<std::optional<Request>(int conn)>;

/// Drive one closed loop per connection, each on its own thread, keeping up
/// to `window` requests in flight per connection. A connection stops
/// sending once `stop_after_s` seconds have passed since the loop started
/// (or when `next` runs dry), then drains its in-flight replies. `traced`
/// adds a client trace id to every line.
LoopResult run_closed_loop(
    const std::vector<suu::client::TcpTransport*>& conns, int window,
    const NextRequest& next, double stop_after_s, bool traced,
    const std::function<bool(std::uint64_t id)>& keep = nullptr);

/// Send `lines` one at a time on `conn` and return the replies ("" for a
/// transport failure).
std::vector<std::string> round_trips(suu::client::TcpTransport& conn,
                                     const std::vector<std::string>& lines);

/// A running `suu_serve --mode=tcp --workers=N` plus its client
/// connections. Destruction closes the connections, then kills and reaps
/// the daemon.
class Daemon {
 public:
  Daemon(const std::string& serve_bin, int workers, int connections);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ok() const noexcept { return ok_; }
  std::vector<suu::client::TcpTransport*> conns() const;
  suu::client::TcpTransport& conn(int i) {
    return *conns_[static_cast<std::size_t>(i)];
  }
  /// The daemon's peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mb() const;

 private:
  suu::client::LocalDaemon daemon_;
  std::vector<std::unique_ptr<suu::client::TcpTransport>> conns_;
  bool ok_ = false;
};

/// A daemon counter block read through the `stats` method.
std::map<std::string, double> read_stats(suu::client::TcpTransport& conn);
/// The suu_lp_* counters read through the `metrics` method.
std::map<std::string, double> read_lp_counters(suu::client::TcpTransport& conn);
/// Phase durations (us) of one trace id read through the `trace` method.
std::map<std::string, double> read_trace(suu::client::TcpTransport& conn,
                                         const std::string& trace_id);

}  // namespace perfbench
