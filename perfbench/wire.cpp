#include "wire.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "service/json.hpp"

namespace perfbench {
namespace {

using suu::client::Deadline;
using suu::client::IoStatus;
using suu::client::TcpTransport;
using suu::service::Json;

// No single request of any workload comes near this; a reply that takes
// longer is counted lost rather than hanging the run.
constexpr int kReplyTimeoutMs = 60'000;
constexpr std::size_t kMaxErrors = 8;

const Json* result_field(const Json& reply, const char* key) {
  const Json* result = reply.find("result");
  return result != nullptr ? result->find(key) : nullptr;
}

/// A result number that must be finite and positive.
bool positive_field(const Json& reply, const char* key, double* out) {
  const Json* v = result_field(reply, key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_double(key);
  return std::isfinite(*out) && *out > 0.0;
}

/// Send one `method` request on `conn` and return its reply's result
/// (null on a transport or parse failure).
Json call(TcpTransport& conn, const std::string& method,
          const std::string& params) {
  std::string line = "{\"id\":0,\"method\":\"" + method + "\"";
  if (!params.empty()) line += ",\"params\":" + params;
  line += '}';
  std::string reply;
  if (conn.write_line(line, Deadline::after_ms(kReplyTimeoutMs)) !=
          IoStatus::Ok ||
      conn.read_line(&reply, Deadline::after_ms(kReplyTimeoutMs)) !=
          IoStatus::Ok) {
    return Json();
  }
  try {
    Json j = Json::parse(reply);
    const Json* result = j.find("result");
    return result != nullptr ? *result : Json();
  } catch (const suu::service::JsonError&) {
    return Json();
  }
}

}  // namespace

Checked check_reply(const Request& req, const std::string& reply) {
  Json j;
  try {
    j = Json::parse(reply);
  } catch (const suu::service::JsonError& e) {
    Checked c;
    c.error = "unparsable reply: " + std::string(e.what());
    return c;
  }
  return check_parsed(req, j, reply);
}

Checked check_parsed(const Request& req, const Json& j,
                     const std::string& reply) {
  Checked c;
  const Json* id = j.find("id");
  if (id == nullptr || !id->is_number() ||
      id->as_double("id") != static_cast<double>(req.id)) {
    c.error = "id not echoed for request " + std::to_string(req.id);
    return c;
  }
  const Json* okv = j.find("ok");
  if (okv == nullptr || !okv->is_bool() || !okv->as_bool("ok")) {
    c.error = req.method + " " + std::to_string(req.id) + " failed: " + reply;
    return c;
  }
  for (const auto& [key, want] :
       {std::pair{"n", req.n}, std::pair{"m", req.m}}) {
    if (want < 0) continue;
    const Json* v = result_field(j, key);
    if (v == nullptr || !v->is_number() ||
        v->as_double(key) != static_cast<double>(want)) {
      c.error = std::string("result.") + key + " mismatch for request " +
                std::to_string(req.id);
      return c;
    }
  }
  if (req.expect_mean && !positive_field(j, "mean", &c.mean)) {
    c.error = "no finite mean for request " + std::to_string(req.id);
    return c;
  }
  if (req.expect_lower_bound &&
      !positive_field(j, "lower_bound", &c.lower_bound)) {
    c.error = "no finite lower_bound for request " + std::to_string(req.id);
    return c;
  }
  c.ok = true;
  return c;
}

LoopResult run_closed_loop(const std::vector<TcpTransport*>& conns,
                           int window, const NextRequest& next,
                           double stop_after_s, bool traced,
                           const std::function<bool(std::uint64_t)>& keep) {
  LoopResult total;
  std::mutex mu;  // guards total
  const Clock::time_point t0 = Clock::now();

  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++total.failed;
    if (total.errors.size() < kMaxErrors) total.errors.push_back(why);
  };

  auto worker = [&](int c) {
    TcpTransport& conn = *conns[static_cast<std::size_t>(c)];
    struct Pending {
      Request req;
      Clock::time_point sent;
    };
    std::unordered_map<std::uint64_t, Pending> inflight;
    std::vector<Completed> done;
    std::uint64_t attempted = 0;
    bool dry = false;
    bool broken = false;
    while (!broken) {
      while (!dry && static_cast<int>(inflight.size()) < window) {
        if (seconds_between(t0, Clock::now()) >= stop_after_s) {
          dry = true;
          break;
        }
        std::optional<Request> r = next(c);
        if (!r) {
          dry = true;
          break;
        }
        const std::string line = traced ? with_trace(*r) : r->line;
        const Clock::time_point sent = Clock::now();
        ++attempted;
        if (conn.write_line(line, Deadline::after_ms(kReplyTimeoutMs)) !=
            IoStatus::Ok) {
          fail("write failed for request " + std::to_string(r->id));
          broken = true;
          break;
        }
        const std::uint64_t id = r->id;
        inflight.emplace(id, Pending{std::move(*r), sent});
      }
      if (broken || inflight.empty()) break;
      std::string reply;
      if (conn.read_line(&reply, Deadline::after_ms(kReplyTimeoutMs)) !=
          IoStatus::Ok) {
        broken = true;
        break;
      }
      const Clock::time_point got = Clock::now();
      // Match the reply to its request by id (replies of a pipelined
      // window may arrive out of order).
      Json j;
      std::uint64_t id = 0;
      try {
        j = Json::parse(reply);
        const Json* idv = j.find("id");
        if (idv != nullptr && idv->is_number()) {
          id = static_cast<std::uint64_t>(idv->as_int64("id"));
        }
      } catch (const suu::service::JsonError&) {
      }
      const auto it = inflight.find(id);
      if (it == inflight.end()) {
        fail("reply for no pending request: " + reply.substr(0, 200));
        broken = true;
        break;
      }
      const Checked chk = check_parsed(it->second.req, j, reply);
      if (!chk.ok) {
        fail(chk.error.substr(0, 300));
      } else {
        Completed cd;
        cd.id = id;
        cd.size_class = it->second.req.size_class;
        cd.latency_ms = seconds_between(it->second.sent, got) * 1e3;
        cd.done_s = seconds_between(t0, got);
        cd.mean = chk.mean;
        cd.lower_bound = chk.lower_bound;
        done.push_back(cd);
        if (keep && keep(id)) {
          std::lock_guard<std::mutex> lock(mu);
          total.kept.emplace(id, reply);
        }
      }
      inflight.erase(it);
    }
    if (broken) {
      // Every request still in flight on a broken connection is lost.
      for (const auto& [id, p] : inflight) {
        fail("no reply for request " + std::to_string(id));
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    total.attempted += attempted;
    for (const Completed& cd : done) {
      total.done.push_back(cd);
      total.wall_s = std::max(total.wall_s, cd.done_s);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back(worker, static_cast<int>(c));
  }
  for (std::thread& t : threads) t.join();
  return total;
}

std::vector<std::string> round_trips(TcpTransport& conn,
                                     const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    std::string reply;
    if (conn.write_line(line, Deadline::after_ms(kReplyTimeoutMs)) !=
            IoStatus::Ok ||
        conn.read_line(&reply, Deadline::after_ms(kReplyTimeoutMs)) !=
            IoStatus::Ok) {
      reply.clear();
    }
    out.push_back(std::move(reply));
  }
  return out;
}

Daemon::Daemon(const std::string& serve_bin, int workers, int connections)
    : daemon_(serve_bin, "", "--workers=" + std::to_string(workers)) {
  if (!daemon_.ok()) return;
  for (int i = 0; i < connections; ++i) {
    auto t = TcpTransport::connect(daemon_.port(), Deadline::after_ms(10'000));
    if (!t) return;
    conns_.push_back(std::move(t));
  }
  ok_ = true;
}

Daemon::~Daemon() {
  conns_.clear();
  daemon_.kill();
}

std::vector<TcpTransport*> Daemon::conns() const {
  std::vector<TcpTransport*> out;
  for (const auto& c : conns_) out.push_back(c.get());
  return out;
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(daemon_.pid()) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::map<std::string, double> read_stats(TcpTransport& conn) {
  std::map<std::string, double> out;
  const Json result = call(conn, "stats", "");
  if (!result.is_object()) return out;
  for (const auto& [block, fields] : result.as_object("stats")) {
    if (!fields.is_object()) continue;
    for (const auto& [key, v] : fields.as_object("block")) {
      if (v.is_number()) out[block + "." + key] = v.as_double("v");
    }
  }
  return out;
}

std::map<std::string, double> read_lp_counters(TcpTransport& conn) {
  std::map<std::string, double> out;
  const Json result = call(conn, "metrics", "");
  const Json* text = result.find("text");
  if (text == nullptr || !text->is_string()) return out;
  std::istringstream is(text->as_string("text"));
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("suu_lp_", 0) != 0) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
  }
  return out;
}

std::map<std::string, double> read_trace(TcpTransport& conn,
                                         const std::string& trace_id) {
  std::map<std::string, double> out;
  const Json result =
      call(conn, "trace", "{\"trace\":\"" + trace_id + "\"}");
  const Json* spans = result.find("spans");
  if (spans == nullptr || !spans->is_array()) return out;
  for (const Json& s : spans->as_array("spans")) {
    const Json* name = s.find("name");
    const Json* dur = s.find("dur_us");
    if (name != nullptr && name->is_string() && dur != nullptr &&
        dur->is_number()) {
      out[name->as_string("name")] += dur->as_double("dur_us");
    }
  }
  return out;
}

}  // namespace perfbench
