#include "client/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "api/registry.hpp"
#include "client/ring.hpp"
#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "obs/spanlog.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace suu::client {
namespace {

using service::Json;
using Clock = std::chrono::steady_clock;

}  // namespace

std::string extract_object(const std::string& line, const std::string& key) {
  const std::string needle = '"' + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return {};
  pos += needle.size();
  if (pos >= line.size() || line[pos] != '{') return {};
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = pos; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) return line.substr(pos, i - pos + 1);
    }
  }
  return {};
}

namespace {

/// How one shard round-trip ended, from the coordinator's point of view.
enum class Outcome {
  Success,    ///< ok reply in hand
  Transport,  ///< connection-level failure — the backend is suspect
  Retryable,  ///< service said try again (overloaded, internal, ...)
  Reopen,     ///< service expired our handle — reopen and re-issue
  Fatal,      ///< service rejected the request itself — retrying is futile
};

struct RequestResult {
  Outcome outcome = Outcome::Transport;
  std::string detail;  ///< io status / error message, for diagnostics
  Json reply{nullptr}; ///< parsed envelope (Success only)
  std::string raw;     ///< raw reply line (Success only)
};

struct ShardState {
  std::uint64_t route_key = 0;  ///< mix(fingerprint, shard index)
  int attempts_here = 0;        ///< attempts on the current backend
  int total_attempts = 0;
  bool failed_once = false;
  Clock::time_point first_failure{};
  double recovery_ms = -1.0;
  std::string row;
  std::vector<double> samples;
  int capped = 0;
};

struct BackendState {
  std::unique_ptr<Transport> transport;
  std::uint64_t handle = 0;
  bool gone = false;  ///< probes exhausted; never coming back this run
  bool ejected_ever = false;
  bool readmitted = false;
  int shards_served = 0;
};

}  // namespace

/// Connections and handles that outlive one run. Borrowed wholesale by
/// run() (whose workers own their BackendState entries without locking)
/// and returned when the workers have joined; update() walks it directly.
/// ShardCoordinator is not itself thread-safe — one run/update at a time —
/// so the pool needs no lock of its own.
struct ShardCoordinator::SessionPool {
  std::vector<BackendState> backends;
  /// The instance bytes every live handle in `backends` was opened (or
  /// last updated) with; empty until the first run/update.
  std::string instance_text;
  std::uint64_t next_id = 1;  ///< request ids, monotone across runs
};

ShardCoordinator::ShardCoordinator(std::vector<Backend> backends,
                                   FanoutOptions options)
    : backends_(std::move(backends)),
      options_(std::move(options)),
      sessions_(std::make_unique<SessionPool>()) {
  sessions_->backends.resize(backends_.size());
  if (!options_.transport) {
    const std::vector<Backend>& pool = backends_;
    const int connect_ms = options_.connect_timeout_ms;
    options_.transport = [&pool, connect_ms](std::size_t index,
                                             const Deadline&) {
      return std::unique_ptr<Transport>(TcpTransport::connect(
          pool[index].port, Deadline::after_ms(connect_ms)));
    };
  }
}

ShardCoordinator::~ShardCoordinator() = default;

namespace {

/// Everything one run shares across its backend workers. Workers touch
/// queues/ring/counters only under mu; transports and handles belong to
/// exactly one worker each and need no lock.
struct Run {
  const EstimateJob& job;
  const FanoutOptions& opt;
  std::atomic<std::uint64_t> next_id{1};

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<int>> queues;
  std::deque<int> parked;  ///< shards with no routable backend right now
  HashRing ring;
  int unfinished = 0;
  int alive_workers = 0;
  bool fatal = false;
  std::string fatal_error;

  std::vector<ShardState> shards;
  std::vector<BackendState> backends;

  int attempts = 0;
  int retries = 0;
  int failovers = 0;
  int reopens = 0;
  int probes = 0;

  explicit Run(const EstimateJob& j, const FanoutOptions& o) : job(j), opt(o) {}

  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    if (!fatal) {
      fatal = true;
      fatal_error = why;
    }
    cv.notify_all();
  }

  bool finished() {
    std::lock_guard<std::mutex> lock(mu);
    return fatal || unfinished == 0;
  }
};

/// One request/reply exchange on a backend's (already connected)
/// transport. Classifies everything the wire can do to us.
RequestResult roundtrip(const FanoutOptions& opt, BackendState& b,
                        const std::string& req) {
  RequestResult rr;
  const Deadline deadline = Deadline::after_ms(opt.request_timeout_ms);
  IoStatus s = b.transport->write_line(req, deadline);
  if (s != IoStatus::Ok) {
    rr.outcome = Outcome::Transport;
    rr.detail = std::string("write: ") + to_string(s);
    return rr;
  }
  std::string line;
  s = b.transport->read_line(&line, deadline);
  if (s != IoStatus::Ok) {
    rr.outcome = Outcome::Transport;
    rr.detail = std::string("read: ") + to_string(s);
    return rr;
  }
  Json reply(nullptr);
  try {
    reply = Json::parse(line);
  } catch (const service::JsonError& e) {
    // A reply that does not parse is a connection that died mid-line
    // (or a server bug); either way this backend's stream is unusable.
    rr.outcome = Outcome::Transport;
    rr.detail = std::string("garbled reply: ") + e.what();
    return rr;
  }
  const Json* ok = reply.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    rr.outcome = Outcome::Transport;
    rr.detail = "reply missing 'ok'";
    return rr;
  }
  if (!ok->as_bool("ok")) {
    std::string code;
    std::string message;
    if (const Json* err = reply.find("error")) {
      if (const Json* c = err->find("code")) code = c->as_string("code");
      if (const Json* m = err->find("message")) {
        message = m->as_string("message");
      }
    }
    rr.detail = code + ": " + message;
    switch (service::classify_error(code)) {
      case service::ErrorClass::Fatal: rr.outcome = Outcome::Fatal; break;
      case service::ErrorClass::Reopen: rr.outcome = Outcome::Reopen; break;
      case service::ErrorClass::Retryable:
        rr.outcome = Outcome::Retryable;
        break;
    }
    return rr;
  }
  rr.outcome = Outcome::Success;
  rr.reply = std::move(reply);
  rr.raw = std::move(line);
  return rr;
}

/// The optional `"trace"` envelope fragment (with its leading comma) for
/// every request this run issues; empty when the job carries no trace id.
std::string trace_field(const Run& run) {
  if (run.job.trace.empty()) return {};
  std::string out = ",\"trace\":";
  service::json_append_quoted(out, run.job.trace);
  return out;
}

/// One open_instance round-trip: on success the backend's handle is set.
/// A shape-violating reply is classified Transport — the stream cannot be
/// trusted.
RequestResult open_instance_req(const FanoutOptions& opt, BackendState& b,
                                const std::string& instance_text,
                                const std::string& trace_json,
                                std::uint64_t id) {
  std::string req = "{\"id\":" + std::to_string(id) + trace_json +
                    ",\"method\":\"open_instance\",\"params\":{\"instance\":";
  service::json_append_quoted(req, instance_text);
  req += "}}";
  RequestResult rr = roundtrip(opt, b, req);
  if (rr.outcome != Outcome::Success) return rr;
  const Json* result = rr.reply.find("result");
  const Json* handle = result ? result->find("handle") : nullptr;
  if (handle == nullptr) {
    rr.outcome = Outcome::Transport;
    rr.detail = "open_instance reply missing handle";
    return rr;
  }
  b.handle = static_cast<std::uint64_t>(handle->as_int64("handle"));
  return rr;
}

/// Connect (if needed), open the shared instance handle (if needed), and
/// issue shard `s`. The handle is opened once per connection and reused —
/// that is what keeps the backend's PrecomputeCache entry pinned and hot.
RequestResult issue(Run& run, std::size_t bi, int s) {
  BackendState& b = run.backends[bi];
  if (!b.transport) {
    b.handle = 0;
    b.transport = run.opt.transport(
        bi, Deadline::after_ms(run.opt.connect_timeout_ms));
    if (!b.transport) {
      RequestResult rr;
      rr.outcome = Outcome::Transport;
      rr.detail = "connect: refused or timed out";
      return rr;
    }
  }
  if (b.handle == 0) {
    const RequestResult rr =
        open_instance_req(run.opt, b, run.job.instance_text, trace_field(run),
                          run.next_id.fetch_add(1));
    if (rr.outcome != Outcome::Success) return rr;
  }
  std::string req = "{\"id\":" + std::to_string(run.next_id.fetch_add(1)) +
                    trace_field(run) +
                    ",\"method\":\"estimate\",\"params\":{\"handle\":" +
                    std::to_string(b.handle) + ",\"solver\":";
  service::json_append_quoted(req, run.job.solver);
  req += ",\"seed\":" + std::to_string(run.job.seed);
  req += ",\"replications\":" + std::to_string(run.job.replications);
  req += ",\"shard\":" + std::to_string(s);
  req += ",\"shards\":" + std::to_string(run.opt.shards);
  req += ",\"samples\":true}}";
  return roundtrip(run.opt, b, req);
}

/// A cheap liveness handshake: fresh connection, one stats round-trip.
bool probe(Run& run, std::size_t bi) {
  BackendState& b = run.backends[bi];
  b.transport.reset();
  b.handle = 0;
  b.transport = run.opt.transport(
      bi, Deadline::after_ms(run.opt.connect_timeout_ms));
  if (!b.transport) return false;
  const std::string req = "{\"id\":" +
                          std::to_string(run.next_id.fetch_add(1)) +
                          ",\"method\":\"stats\"}";
  const RequestResult rr = roundtrip(run.opt, b, req);
  if (rr.outcome != Outcome::Success) {
    b.transport.reset();
    b.handle = 0;
    return false;
  }
  return true;
}

/// Store a successful shard reply. Returns false (-> fatal) when the
/// reply violates the protocol shape.
bool record_success(Run& run, std::size_t bi, int s,
                    const RequestResult& rr) {
  ShardState& st = run.shards[static_cast<std::size_t>(s)];
  const Json* result = rr.reply.find("result");
  const Json* seq = result ? result->find("seq") : nullptr;
  const Json* samples = result ? result->find("samples") : nullptr;
  const Json* capped = result ? result->find("capped") : nullptr;
  std::string row = extract_object(rr.raw, "shard");
  if (seq == nullptr || samples == nullptr || capped == nullptr ||
      row.empty() || seq->as_int64("seq") != s) {
    run.fail("malformed shard reply for shard " + std::to_string(s));
    return false;
  }
  st.row = std::move(row);
  st.capped = static_cast<int>(capped->as_int64("capped"));
  st.samples.clear();
  for (const Json& x : samples->as_array("samples")) {
    st.samples.push_back(x.as_double("sample"));
  }
  if (st.failed_once) {
    st.recovery_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  st.first_failure)
            .count();
  }
  std::lock_guard<std::mutex> lock(run.mu);
  ++run.backends[bi].shards_served;
  if (--run.unfinished == 0) run.cv.notify_all();
  return true;
}

void note_failure(ShardState& st) {
  if (!st.failed_once) {
    st.failed_once = true;
    st.first_failure = Clock::now();
  }
}

/// Eject backend `bi`, re-route its queue (and `failed_shard`) over the
/// surviving ring, then try to win re-admission with health probes. With
/// the ring empty the shards park until some backend comes back.
void eject_and_probe(Run& run, std::size_t bi, int failed_shard) {
  BackendState& b = run.backends[bi];
  b.transport.reset();
  b.handle = 0;
  {
    std::lock_guard<std::mutex> lock(run.mu);
    run.ring.remove(bi);
    b.ejected_ever = true;
    std::deque<int> moved;
    moved.push_back(failed_shard);
    auto& q = run.queues[bi];
    moved.insert(moved.end(), q.begin(), q.end());
    q.clear();
    for (const int s : moved) {
      run.shards[static_cast<std::size_t>(s)].attempts_here = 0;
      if (run.ring.empty()) {
        run.parked.push_back(s);
      } else {
        const std::size_t target =
            run.ring.route(run.shards[static_cast<std::size_t>(s)].route_key);
        run.queues[target].push_back(s);
        ++run.failovers;
      }
    }
    run.cv.notify_all();
  }

  const std::uint64_t probe_seed =
      run.opt.jitter_seed ^
      util::hash_mix(0xb0 + static_cast<std::uint64_t>(bi) + 1);
  for (int attempt = 1; attempt <= run.opt.probe_attempts; ++attempt) {
    if (run.finished()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        run.opt.backoff.delay_ms(attempt, probe_seed)));
    if (run.finished()) return;
    {
      std::lock_guard<std::mutex> lock(run.mu);
      ++run.probes;
    }
    if (probe(run, bi)) {
      std::lock_guard<std::mutex> lock(run.mu);
      run.ring.add(bi, run.opt.ring_vnodes);
      b.readmitted = true;
      while (!run.parked.empty()) {
        run.queues[bi].push_back(run.parked.front());
        run.parked.pop_front();
      }
      run.cv.notify_all();
      return;
    }
  }
  // Out of probes: this worker retires. If it was the last one and work
  // remains, the run cannot complete.
  std::lock_guard<std::mutex> lock(run.mu);
  b.gone = true;
  if (--run.alive_workers == 0 && run.unfinished > 0 && !run.fatal) {
    run.fatal = true;
    run.fatal_error = "all backends failed";
  }
  run.cv.notify_all();
}

void process_shard(Run& run, std::size_t bi, int s) {
  ShardState& st = run.shards[static_cast<std::size_t>(s)];
  {
    std::lock_guard<std::mutex> lock(run.mu);
    ++run.attempts;
  }
  ++st.total_attempts;
  // Backstop against livelock: a shard bouncing forever between retries
  // and failovers eventually gives up on the whole run.
  const int cap = run.opt.backoff.max_attempts *
                  (static_cast<int>(run.backends.size()) + 2);
  if (st.total_attempts > cap) {
    run.fail("shard " + std::to_string(s) + " exhausted " +
             std::to_string(cap) + " attempts");
    return;
  }

  const std::uint64_t attempt_t0 = obs::enabled() ? obs::now_us() : 0;
  const RequestResult rr = issue(run, bi, s);
  if (obs::enabled()) {
    static obs::Histogram& rtt =
        obs::Registry::global().histogram("suu_fanout_shard_rtt_us");
    rtt.observe(obs::now_us() - attempt_t0);
  }
  switch (rr.outcome) {
    case Outcome::Success:
      record_success(run, bi, s, rr);
      return;
    case Outcome::Fatal:
      run.fail("shard " + std::to_string(s) + ": " + rr.detail);
      return;
    case Outcome::Reopen: {
      // Our handle was LRU-expired server-side; the backend itself is
      // fine. Reopen on the next issue() and re-run immediately.
      note_failure(st);
      run.backends[bi].handle = 0;
      std::lock_guard<std::mutex> lock(run.mu);
      ++run.reopens;
      run.queues[bi].push_front(s);
      run.cv.notify_all();
      return;
    }
    case Outcome::Retryable: {
      note_failure(st);
      ++st.attempts_here;
      {
        std::lock_guard<std::mutex> lock(run.mu);
        ++run.retries;
      }
      if (st.attempts_here < run.opt.backoff.max_attempts) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            run.opt.backoff.delay_ms(st.attempts_here,
                                     run.opt.jitter_seed ^ st.route_key)));
        std::lock_guard<std::mutex> lock(run.mu);
        run.queues[bi].push_back(s);
        run.cv.notify_all();
        return;
      }
      // This backend keeps refusing: move the shard elsewhere (salted
      // re-route so the ring does not send it straight back). With one
      // backend left it stays put — degradation, not deadlock; the
      // total-attempts backstop above still bounds the run.
      st.attempts_here = 0;
      std::lock_guard<std::mutex> lock(run.mu);
      std::size_t target = bi;
      for (int salt = 1; salt <= 8 && target == bi; ++salt) {
        target = run.ring.route(util::hash_combine(
            st.route_key, static_cast<std::uint64_t>(salt)));
      }
      if (target != bi) ++run.failovers;
      run.queues[target].push_back(s);
      run.cv.notify_all();
      return;
    }
    case Outcome::Transport:
      note_failure(st);
      eject_and_probe(run, bi, s);
      return;
  }
}

void worker(Run& run, std::size_t bi) {
  try {
    for (;;) {
      int s = -1;
      {
        std::unique_lock<std::mutex> lock(run.mu);
        run.cv.wait(lock, [&] {
          return run.fatal || run.unfinished == 0 ||
                 run.backends[bi].gone || !run.queues[bi].empty();
        });
        if (run.fatal || run.unfinished == 0 || run.backends[bi].gone) {
          return;
        }
        s = run.queues[bi].front();
        run.queues[bi].pop_front();
      }
      process_shard(run, bi, s);
    }
  } catch (const std::exception& e) {
    run.fail(std::string("worker exception: ") + e.what());
  }
}

}  // namespace

FanoutResult ShardCoordinator::run(const EstimateJob& job) {
  FanoutResult out;
  if (backends_.empty()) {
    out.error = "no backends";
    return out;
  }
  if (job.replications < 1 || options_.shards < 1 ||
      options_.shards > job.replications) {
    out.error = "need 1 <= shards <= replications";
    return out;
  }

  // Parse the instance locally: its fingerprint keys the affine routing,
  // and the merged lower bound (when asked for) is recomputed here with
  // the exact code path the service would have used.
  std::shared_ptr<const core::Instance> instance;
  try {
    instance = std::make_shared<const core::Instance>(
        core::read_instance(job.instance_text));
  } catch (const std::exception& e) {
    out.error = std::string("bad instance: ") + e.what();
    return out;
  }

  Run run(job, options_);
  run.queues.resize(backends_.size());
  // Borrow the persistent pool: connections and handles opened by a
  // previous run (or update) of the same instance bytes survive, keeping
  // the backends' PrecomputeCache entries pinned and hot. A different
  // instance invalidates the handles — they name the old instance
  // server-side — but keeps the connections.
  if (sessions_->instance_text != job.instance_text) {
    for (BackendState& b : sessions_->backends) b.handle = 0;
    sessions_->instance_text = job.instance_text;
  }
  run.backends = std::move(sessions_->backends);
  run.next_id.store(sessions_->next_id);
  for (BackendState& b : run.backends) {
    b.gone = false;
    b.ejected_ever = false;
    b.readmitted = false;
    b.shards_served = 0;
  }
  run.shards.resize(static_cast<std::size_t>(options_.shards));
  run.unfinished = options_.shards;
  run.alive_workers = static_cast<int>(backends_.size());
  for (std::size_t bi = 0; bi < backends_.size(); ++bi) {
    run.ring.add(bi, options_.ring_vnodes);
  }
  for (int s = 0; s < options_.shards; ++s) {
    ShardState& st = run.shards[static_cast<std::size_t>(s)];
    st.route_key = util::hash_combine(instance->fingerprint(),
                                      static_cast<std::uint64_t>(s));
    run.queues[run.ring.route(st.route_key)].push_back(s);
  }

  std::vector<std::thread> threads;
  threads.reserve(backends_.size());
  for (std::size_t bi = 0; bi < backends_.size(); ++bi) {
    threads.emplace_back([&run, bi] { worker(run, bi); });
  }
  for (std::thread& t : threads) t.join();

  // Hand connections and handles back to the pool (fatal runs included:
  // whatever survived is still good for the next run).
  sessions_->backends = std::move(run.backends);
  sessions_->next_id = run.next_id.load();
  const std::vector<BackendState>& pool = sessions_->backends;

  {
    std::lock_guard<std::mutex> lock(run.mu);
    out.attempts = run.attempts;
    out.retries = run.retries;
    out.failovers = run.failovers;
    out.reopens = run.reopens;
    out.probes = run.probes;
    out.backends.resize(backends_.size());
    for (std::size_t bi = 0; bi < backends_.size(); ++bi) {
      BackendReport& rep = out.backends[bi];
      rep.alive = run.ring.contains(bi);
      rep.ejected = pool[bi].ejected_ever;
      rep.readmitted = pool[bi].readmitted;
      rep.shards_served = pool[bi].shards_served;
    }
    if (run.fatal) {
      out.error = run.fatal_error;
      return out;
    }
  }

  // Merge. Rows concatenate in shard order; the aggregate replays every
  // shard's samples in that same order through Welford, which is exactly
  // the accumulation the unsharded estimate performed.
  util::OnlineStats agg;
  int capped_total = 0;
  for (const ShardState& st : run.shards) {
    out.table_json += st.row;
    out.table_json.push_back('\n');
    for (const double x : st.samples) agg.add(x);
    capped_total += st.capped;
    out.recovery_ms = std::max(out.recovery_ms, st.recovery_ms);
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("suu_fanout_runs_total").add();
    reg.counter("suu_fanout_attempts_total")
        .add(static_cast<std::uint64_t>(out.attempts));
    reg.counter("suu_fanout_retries_total")
        .add(static_cast<std::uint64_t>(out.retries));
    reg.counter("suu_fanout_failovers_total")
        .add(static_cast<std::uint64_t>(out.failovers));
    reg.counter("suu_fanout_reopens_total")
        .add(static_cast<std::uint64_t>(out.reopens));
    reg.counter("suu_fanout_probes_total")
        .add(static_cast<std::uint64_t>(out.probes));
    std::uint64_t readmits = 0;
    for (const BackendReport& rep : out.backends) {
      if (rep.readmitted) ++readmits;
    }
    reg.counter("suu_fanout_readmits_total").add(readmits);
    static obs::Histogram& attempts_hist =
        reg.histogram("suu_fanout_shard_attempts");
    for (const ShardState& st : run.shards) {
      attempts_hist.observe(static_cast<std::uint64_t>(st.total_attempts));
    }
  }

  // Solver name / n / m come from the first row — the service reports the
  // RESOLVED solver there ("auto" dispatches per instance structure).
  std::string solver_name;
  int n = 0;
  int m = 0;
  try {
    const Json row = Json::parse(run.shards.front().row);
    const Json* sv = row.find("solver");
    const Json* jn = row.find("n");
    const Json* jm = row.find("m");
    if (sv == nullptr || jn == nullptr || jm == nullptr) {
      out.error = "shard row missing solver/n/m";
      return out;
    }
    solver_name = sv->as_string("solver");
    n = static_cast<int>(jn->as_int64("n"));
    m = static_cast<int>(jm->as_int64("m"));
  } catch (const std::exception& e) {
    out.error = std::string("unparseable shard row: ") + e.what();
    return out;
  }

  std::string result = service::estimate_result_body(
      solver_name, n, m, job.replications, capped_total,
      util::make_estimate(agg));
  if (job.lower_bound) {
    const algos::LowerBound lb = api::lower_bound_auto(*instance);
    result += ",\"lower_bound\":" + util::fmt(lb.value, 6);
    if (lb.value > 0.0) {
      const util::Estimate est = util::make_estimate(agg);
      result += ",\"ratio\":" + util::fmt(est.mean / lb.value, 6);
    }
  }
  result += '}';
  out.result_json = std::move(result);
  out.ok = true;
  return out;
}

namespace {

std::string fp_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

/// The update_instance request line for one backend's handle. Edge lists
/// and q cells serialize in the delta's own order (the server validates
/// set-semantically; order only matters for deletions-before-additions,
/// which the method fixes server-side).
std::string update_request(std::uint64_t id, const std::string& trace_json,
                           std::uint64_t handle,
                           const core::InstanceDelta& delta) {
  std::string req = "{\"id\":" + std::to_string(id) + trace_json +
                    ",\"method\":\"update_instance\",\"params\":{\"handle\":" +
                    std::to_string(handle);
  if (!delta.q.empty()) {
    req += ",\"q\":{";
    bool first = true;
    for (const auto& [cell, value] : delta.q) {
      if (!first) req.push_back(',');
      first = false;
      req += '"' + std::to_string(cell) + "\":" + service::json_number(value);
    }
    req += '}';
  }
  const auto edge_list = [&req](const char* key,
                                const std::vector<std::pair<int, int>>& es) {
    if (es.empty()) return;
    req += std::string(",\"") + key + "\":[";
    bool first = true;
    for (const auto& [u, v] : es) {
      if (!first) req.push_back(',');
      first = false;
      req += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
    }
    req += ']';
  };
  edge_list("add_edges", delta.add_edges);
  edge_list("del_edges", delta.del_edges);
  req += "}}";
  return req;
}

}  // namespace

UpdateResult ShardCoordinator::update(const UpdateSpec& spec) {
  UpdateResult out;

  // Apply the delta locally first: the mutated instance's canonical bytes
  // and fingerprint must be known regardless of which backends are
  // reachable — they are what the caller's next EstimateJob must carry.
  std::shared_ptr<const core::Instance> base;
  try {
    base = std::make_shared<const core::Instance>(
        core::read_instance(spec.instance_text));
  } catch (const std::exception& e) {
    out.error = std::string("bad instance: ") + e.what();
    return out;
  }
  std::shared_ptr<const core::Instance> next;
  try {
    next = std::make_shared<const core::Instance>(
        core::apply_delta(*base, spec.delta));
  } catch (const core::DeltaError& e) {
    out.error = std::string("bad delta: ") + e.what();
    return out;
  }
  {
    std::ostringstream os;
    core::write_instance(os, *next);
    out.instance_text = os.str();
  }
  out.fingerprint = next->fingerprint();
  const std::string expect_fp = fp_hex(out.fingerprint);

  std::string trace_json;
  if (!spec.trace.empty()) {
    trace_json = ",\"trace\":";
    service::json_append_quoted(trace_json, spec.trace);
  }

  // Handles are only worth updating if they hold the delta's base; a pool
  // opened on different bytes would delta a different instance.
  const bool base_matches = sessions_->instance_text == spec.instance_text;
  for (std::size_t bi = 0; bi < sessions_->backends.size(); ++bi) {
    BackendState& b = sessions_->backends[bi];
    if (!base_matches) b.handle = 0;
    if (!b.transport || b.handle == 0) continue;  // run() re-opens lazily

    RequestResult rr = roundtrip(
        options_,  b,
        update_request(sessions_->next_id++, trace_json, b.handle,
                       spec.delta));
    if (rr.outcome == Outcome::Reopen) {
      // The backend LRU-expired our handle, so it never held the parent —
      // nothing to delta there. Open the mutated instance directly.
      b.handle = 0;
      rr = open_instance_req(options_, b, out.instance_text, trace_json,
                             sessions_->next_id++);
      if (rr.outcome == Outcome::Success && b.handle != 0) {
        ++out.reopened;
      } else {
        b.transport.reset();
        ++out.skipped;
      }
      continue;
    }
    if (rr.outcome == Outcome::Fatal) {
      // A delta that passed local validation was rejected server-side:
      // version skew between client and backend. Leave no half-updated
      // pool behind — drop every handle so the next run() opens whichever
      // instance it actually wants, and report the skew.
      for (BackendState& bb : sessions_->backends) bb.handle = 0;
      sessions_->instance_text.clear();
      out.error = "backend " + std::to_string(bi) + ": " + rr.detail;
      return out;
    }
    if (rr.outcome != Outcome::Success) {
      // Transport trouble or a transient server condition (busy_handle,
      // overloaded): drop the connection and let the next run() recover it
      // with a fresh open of the new instance.
      b.transport.reset();
      b.handle = 0;
      ++out.skipped;
      continue;
    }
    bool verified = false;
    try {
      const Json* result = rr.reply.find("result");
      const Json* fp = result ? result->find("fingerprint") : nullptr;
      verified = fp != nullptr && fp->as_string("fingerprint") == expect_fp;
    } catch (const service::JsonError&) {
    }
    if (!verified) {
      // The backend applied the delta to something other than our base —
      // its session diverged. Reset; lazy re-open fixes it.
      b.transport.reset();
      b.handle = 0;
      ++out.skipped;
      continue;
    }
    ++out.updated;
  }

  sessions_->instance_text = out.instance_text;
  out.ok = true;
  return out;
}

}  // namespace suu::client
