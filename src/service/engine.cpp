#include "service/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include "api/experiment.hpp"
#include "api/precompute_cache.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/spanlog.hpp"
#include "util/table.hpp"

namespace suu::service {
namespace {

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

// ------------------------------------------------------------ request obs
//
// Per-request phase accounting. Every request executes synchronously on
// one engine thread (handle() inline, submit() on one pool worker), so a
// thread-local pointer to the live request's accumulator lets deep layers
// (prepare, the estimate runners) attribute time to phases without
// threading a context parameter through every handler signature.

enum Phase : int {
  kPhaseQueueWait = 0,
  kPhaseParse,
  kPhasePrepare,
  kPhaseSolve,
  kPhaseRespond,
  kPhaseCount,
};

constexpr const char* kPhaseNames[kPhaseCount] = {
    "queue_wait", "parse", "prepare", "solve", "respond"};

struct RequestObs {
  std::string trace;
  const char* method = "invalid";
  std::uint64_t start_us = 0;
  struct Acc {
    std::uint64_t start = 0;
    std::uint64_t dur = 0;
    bool used = false;
  } phases[kPhaseCount];

  void add(int phase, std::uint64_t start, std::uint64_t dur) {
    Acc& a = phases[phase];
    if (!a.used) {
      a.used = true;
      a.start = start;
    }
    a.dur += dur;  // streamed requests fold repeated respond/solve spans
  }
};

thread_local RequestObs* g_req_obs = nullptr;

class ScopedPhase {
 public:
  explicit ScopedPhase(int phase) : phase_(phase) {
    if (g_req_obs != nullptr && obs::enabled()) {
      active_ = true;
      t0_ = obs::now_us();
    }
  }
  ~ScopedPhase() {
    if (active_) g_req_obs->add(phase_, t0_, obs::now_us() - t0_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  int phase_;
  bool active_ = false;
  std::uint64_t t0_ = 0;
};

// Clamp the per-method metric label to the known method set so a client
// cannot grow unbounded label cardinality with made-up method names.
const char* method_label(const std::string& method) {
  static constexpr const char* kKnown[] = {
      "list_solvers", "open_instance", "update_instance", "close_instance",
      "solve",        "estimate",      "stats",           "metrics",
      "trace",        "shutdown"};
  for (const char* m : kKnown) {
    if (method == m) return m;
  }
  return "other";
}

obs::Histogram& phase_histogram(int phase) {
  static obs::Histogram* hists[kPhaseCount] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (int i = 0; i < kPhaseCount; ++i) {
      hists[i] = &obs::Registry::global().histogram(
          std::string("suu_phase_us{phase=\"") + kPhaseNames[i] + "\"}");
    }
  });
  return *hists[phase];
}

/// Run a one-cell estimate runner, mapping the skip_capped budget
/// exhaustion ("every replication hit the step cap") onto its wire code.
const api::CellResult& run_runner_guarded(api::ExperimentRunner& runner) {
  ScopedPhase phase(kPhaseSolve);
  try {
    return runner.run().front();
  } catch (const util::CheckError& err) {
    // With skip_capped set, an exhausted replication budget is the one
    // capping failure left; report it under its own code. Every other
    // CheckError (e.g. a strict-eligibility violation inside execute)
    // keeps the generic bad_params mapping of the dispatch handler.
    if (std::string_view(err.what()).find("step cap") !=
        std::string_view::npos) {
      throw ProtocolError(error_code::kCapped, err.what());
    }
    throw;
  }
}

/// The request's lower bound, reusing the relaxations its prepared solver
/// already solved. Whatever LP work is left is attributed to the prepare
/// phase, like the solver's own LP solves.
algos::LowerBound prepared_lower_bound(const core::Instance& instance,
                                       const api::PreparedSolver& solver,
                                       const rounding::Lp1Options& opt) {
  ScopedPhase phase(kPhasePrepare);
  return api::lower_bound_auto(instance, solver, opt);
}

}  // namespace

Engine::Engine(const Config& cfg)
    : cfg_(cfg), pool_(std::make_unique<util::ThreadPool>(cfg.workers)) {
  if (cfg_.max_open_handles == 0) cfg_.max_open_handles = 1;
  stats_.queue_capacity = cfg_.queue_capacity;
  stats_.workers = pool_->size();
}

Engine::~Engine() {
  drain();
  // Release every pin this engine's sessions hold: the PrecomputeCache is
  // process-wide and must not stay over-retained after the engine is gone.
  std::lock_guard<std::mutex> lock(sess_mu_);
  for (auto& [handle, session] : sessions_) {
    for (const std::uint64_t key : session.pinned_keys) {
      api::PrecomputeCache::global().unpin(key);
    }
  }
  sessions_.clear();
  session_lru_.clear();
}

bool Engine::stopping() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

void Engine::set_shutdown_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_hook_ = std::move(hook);
}

void Engine::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

Engine::Stats Engine::stats() const {
  std::size_t open = 0;
  {
    std::lock_guard<std::mutex> lock(sess_mu_);
    open = sessions_.size();
  }
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.inflight = inflight_;
  s.open_handles = open;
  return s;
}

std::string Engine::handle(const std::string& line) {
  std::string joined;
  process(
      line,
      [&joined](std::string&& resp, bool /*last*/) {
        if (!joined.empty()) joined.push_back('\n');
        joined += resp;
      },
      /*client=*/0);
  return joined;
}

std::uint64_t Engine::begin_client() {
  std::lock_guard<std::mutex> lock(sess_mu_);
  return next_client_++;
}

void Engine::end_client(std::uint64_t client) {
  if (client == 0) return;
  std::vector<std::uint64_t> pinned;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(sess_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.owner != client) {
        ++it;
        continue;
      }
      pinned.insert(pinned.end(), it->second.pinned_keys.begin(),
                    it->second.pinned_keys.end());
      session_lru_.erase(it->second.lru_it);
      it = sessions_.erase(it);
      ++dropped;
    }
  }
  for (const std::uint64_t key : pinned) {
    api::PrecomputeCache::global().unpin(key);
  }
  if (dropped != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.sessions_dropped += dropped;
  }
}

namespace {
void record_request_obs(const RequestObs& robs, std::uint64_t queued_at_us,
                        const Engine::Config& cfg);
}  // namespace

void Engine::record_slow_reader_drop() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.slow_reader_drops;
}

void Engine::process(const std::string& line, const Reply& emit,
                     std::uint64_t client, std::uint64_t queued_at_us,
                     const CancelToken& cancel) {
  bool ok = false;
  const bool obs_on = obs::enabled();
  RequestObs robs;
  Reply timed_emit;
  const Reply* out = &emit;
  if (obs_on) {
    robs.start_us = obs::now_us();
    if (queued_at_us != 0 && robs.start_us > queued_at_us) {
      robs.add(kPhaseQueueWait, queued_at_us, robs.start_us - queued_at_us);
    }
    g_req_obs = &robs;
    timed_emit = [&emit, &robs](std::string&& resp, bool last) {
      const std::uint64_t t0 = obs::now_us();
      emit(std::move(resp), last);
      robs.add(kPhaseRespond, t0, obs::now_us() - t0);
    };
    out = &timed_emit;
  }
  if (line.size() > cfg_.max_line_bytes) {
    (*out)(make_error_response(
               Json(nullptr), error_code::kParseError,
               "request line exceeds " + std::to_string(cfg_.max_line_bytes) +
                   " bytes"),
           true);
  } else {
    try {
      Request req;
      {
        ScopedPhase phase(kPhaseParse);
        req = parse_request(line);
      }
      if (obs_on) {
        robs.method = method_label(req.method);
        robs.trace =
            req.trace.empty()
                ? "srv-" + std::to_string(next_trace_.fetch_add(
                               1, std::memory_order_relaxed))
                : req.trace;
      }
      dispatch(req, &ok, *out, client, cancel);
    } catch (const ProtocolError& err) {
      (*out)(make_error_response(parse_request_id(line), err.code(),
                                 err.what()),
             true);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
    if (ok) {
      ++stats_.succeeded;
    } else {
      ++stats_.failed;
    }
  }
  if (obs_on) {
    g_req_obs = nullptr;
    record_request_obs(robs, queued_at_us, cfg_);
  }
}

namespace {

void record_request_obs(const RequestObs& robs, std::uint64_t queued_at_us,
                        const Engine::Config& cfg) {
  const std::uint64_t end_us = obs::now_us();
  const std::uint64_t begin_us =
      queued_at_us != 0 ? queued_at_us : robs.start_us;
  const std::uint64_t total_us = end_us > begin_us ? end_us - begin_us : 0;

  obs::Registry::global()
      .counter(std::string("suu_requests_total{method=\"") + robs.method +
               "\"}")
      .add();
  obs::Registry::global()
      .histogram(std::string("suu_request_us{method=\"") + robs.method +
                 "\"}")
      .observe(total_us);

  const char* dominant = "none";
  std::uint64_t dominant_dur = 0;
  for (int i = 0; i < kPhaseCount; ++i) {
    const RequestObs::Acc& a = robs.phases[i];
    if (!a.used) continue;
    phase_histogram(i).observe(a.dur);
    obs::SpanLog::global().record(
        obs::Span{robs.trace, kPhaseNames[i], a.start, a.dur});
    if (a.dur >= dominant_dur) {
      dominant = kPhaseNames[i];
      dominant_dur = a.dur;
    }
  }
  obs::SpanLog::global().record(
      obs::Span{robs.trace, std::string("request:") + robs.method, begin_us,
                total_us});

  if (cfg.slow_log_ms > 0 &&
      total_us >= static_cast<std::uint64_t>(cfg.slow_log_ms) * 1000) {
    std::string msg = "slow-request trace=";
    msg += robs.trace;
    msg += " method=";
    msg += robs.method;
    msg += " total_us=" + std::to_string(total_us);
    msg += " dominant=";
    msg += dominant;
    for (int i = 0; i < kPhaseCount; ++i) {
      if (!robs.phases[i].used) continue;
      msg += ' ';
      msg += kPhaseNames[i];
      msg += "=" + std::to_string(robs.phases[i].dur);
    }
    if (cfg.slow_log_sink) {
      cfg.slow_log_sink(msg);
    } else {
      std::fprintf(stderr, "%s\n", msg.c_str());
    }
  }
}

}  // namespace

void Engine::submit(std::string line, Reply reply, std::uint64_t client,
                    CancelToken cancel) {
  const char* reject_code = nullptr;
  const char* reject_msg = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject_code = error_code::kShuttingDown;
      reject_msg = "service is shutting down";
    } else if (inflight_ >= cfg_.queue_capacity) {
      reject_code = error_code::kOverloaded;
      reject_msg = "admission queue is full";
    } else {
      ++inflight_;
    }
    if (reject_code != nullptr) {
      ++stats_.received;
      ++stats_.rejected;
      ++stats_.failed;
    }
  }
  if (reject_code != nullptr) {
    reply(make_error_response(parse_request_id(line), reject_code, reject_msg),
          true);
    return;
  }
  auto shared_reply = std::make_shared<Reply>(std::move(reply));
  auto shared_line = std::make_shared<std::string>(std::move(line));
  const std::uint64_t queued_at_us = obs::enabled() ? obs::now_us() : 0;
  pool_->submit([this, shared_reply, shared_line, client, queued_at_us,
                 cancel = std::move(cancel)] {
    // The slot must be released no matter what: a throwing reply callback
    // (or an allocation failure building a response) would otherwise leak
    // inflight_ and deadlock drain()/~Engine.
    try {
      process(*shared_line, *shared_reply, client, queued_at_us, cancel);
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      if (inflight_ == 0) idle_cv_.notify_all();
    }
  });
}

void Engine::dispatch(const Request& req, bool* ok, const Reply& emit,
                      std::uint64_t client, const CancelToken& cancel) {
  try {
    if (req.method == "estimate") {
      // Streamed estimates frame their own response lines (shard
      // envelopes, then the terminal line).
      handle_estimate(req.id, req.params, ok, emit, cancel);
      return;
    }
    std::string result;
    if (req.method == "list_solvers") {
      result = handle_list_solvers();
    } else if (req.method == "open_instance") {
      result = handle_open_instance(req.params, client);
    } else if (req.method == "update_instance") {
      result = handle_update_instance(req.params);
    } else if (req.method == "close_instance") {
      result = handle_close_instance(req.params);
    } else if (req.method == "solve") {
      result = handle_solve(req.params);
    } else if (req.method == "stats") {
      result = handle_stats();
    } else if (req.method == "metrics") {
      result = handle_metrics();
    } else if (req.method == "trace") {
      result = handle_trace(req.params);
    } else if (req.method == "shutdown") {
      result = handle_shutdown();
    } else {
      throw ProtocolError(error_code::kUnknownMethod,
                          "unknown method '" + req.method + "'");
    }
    *ok = true;
    emit(make_result_response(req.id, result), true);
  } catch (const ProtocolError& err) {
    emit(make_error_response(req.id, err.code(), err.what()), true);
  } catch (const JsonError& err) {
    // Type-mismatched params (as_string on a number, fractional ints, …)
    // surface from the Json accessors: the client's input, not our fault.
    emit(make_error_response(req.id, error_code::kBadParams, err.what()),
         true);
  } catch (const core::ParseError& err) {
    emit(make_error_response(req.id, error_code::kBadInstance, err.what()),
         true);
  } catch (const util::CheckError& err) {
    // Contract violations below the protocol layer — e.g. a structure
    // solver asked to prepare a mismatched dag — are the client's doing.
    emit(make_error_response(req.id, error_code::kBadParams, err.what()),
         true);
  } catch (const std::exception& err) {
    emit(make_error_response(req.id, error_code::kInternal, err.what()),
         true);
  }
}

std::string Engine::handle_list_solvers() const {
  const api::SolverRegistry& reg = api::SolverRegistry::global();
  std::string out = "{\"solvers\":[";
  bool first = true;
  for (const std::string& name : reg.names()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    json_append_quoted(out, name);
    out += ",\"summary\":";
    json_append_quoted(out, reg.summary(name));
    out += '}';
  }
  out += "]}";
  return out;
}

std::shared_ptr<const core::Instance> Engine::parse_instance(
    std::string_view text) const {
  ScopedPhase phase(kPhaseParse);
  return std::make_shared<const core::Instance>(
      core::read_instance(text, cfg_.read_limits));
}

std::string Engine::handle_open_instance(const Json& params,
                                         std::uint64_t client) {
  const OpenInstanceParams p = parse_open_instance_params(params);
  auto inst = parse_instance(p.instance_text);

  std::uint64_t handle = 0;
  std::vector<std::uint64_t> expired_keys;
  bool expired_one = false;
  {
    std::lock_guard<std::mutex> lock(sess_mu_);
    if (sessions_.size() >= cfg_.max_open_handles && !sessions_.empty()) {
      expired_keys = expire_lru_session_locked();
      expired_one = true;
    }
    handle = next_handle_++;
    Session session;
    session.instance = inst;
    session.owner = client;
    session.lru_it = session_lru_.insert(session_lru_.end(), handle);
    sessions_.emplace(handle, std::move(session));
  }
  for (const std::uint64_t key : expired_keys) {
    api::PrecomputeCache::global().unpin(key);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sessions_opened;
    if (expired_one) ++stats_.sessions_expired;
  }

  std::string out = "{\"handle\":" + std::to_string(handle);
  out += ",\"fingerprint\":";
  json_append_quoted(out, fingerprint_hex(inst->fingerprint()));
  out += ",\"n\":" + std::to_string(inst->num_jobs());
  out += ",\"m\":" + std::to_string(inst->num_machines());
  out += '}';
  return out;
}

std::string Engine::handle_update_instance(const Json& params) {
  const UpdateInstanceParams p = parse_update_instance_params(params);

  // Snapshot the handle's current instance under the lock, apply the delta
  // outside it (validation + the Dag rebuild may be arbitrarily large),
  // then re-check and install. The pointer-equality re-check makes
  // concurrent updates on one handle safe: whichever racer re-locks second
  // sees a different base pointer and reports busy_handle instead of
  // silently clobbering the winner's instance.
  std::shared_ptr<const core::Instance> base;
  {
    std::lock_guard<std::mutex> lock(sess_mu_);
    const auto it = sessions_.find(p.handle);
    if (it == sessions_.end()) {
      throw ProtocolError(error_code::kUnknownHandle,
                          "unknown, closed, or expired instance handle " +
                              std::to_string(p.handle));
    }
    if (it->second.streams > 0) {
      throw ProtocolError(error_code::kBusyHandle,
                          "handle " + std::to_string(p.handle) +
                              " has a streamed estimate in flight; retry "
                              "when the stream completes");
    }
    session_lru_.splice(session_lru_.end(), session_lru_, it->second.lru_it);
    base = it->second.instance;
  }

  std::shared_ptr<const core::Instance> next;
  try {
    next = std::make_shared<const core::Instance>(
        core::apply_delta(*base, p.delta, cfg_.read_limits));
  } catch (const core::DeltaError& err) {
    throw ProtocolError(error_code::kBadDelta, err.what());
  }

  std::vector<std::uint64_t> released;
  {
    std::lock_guard<std::mutex> lock(sess_mu_);
    const auto it = sessions_.find(p.handle);
    if (it == sessions_.end()) {
      throw ProtocolError(error_code::kUnknownHandle,
                          "instance handle " + std::to_string(p.handle) +
                              " was closed or expired while the update was "
                              "applying");
    }
    if (it->second.streams > 0 || it->second.instance != base) {
      throw ProtocolError(error_code::kBusyHandle,
                          "a concurrent request raced this update on handle " +
                              std::to_string(p.handle) + "; retry");
    }
    it->second.instance = next;
    // The parent's prepare keys name entries no request through this
    // handle can reach again; release them (outside sess_mu_, as
    // close_instance does) so a long-lived handle pins only its current
    // instance's keys.
    released = std::move(it->second.pinned_keys);  // leaves it empty
    session_lru_.splice(session_lru_.end(), session_lru_, it->second.lru_it);
  }
  for (const std::uint64_t key : released) {
    api::PrecomputeCache::global().unpin(key);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deltas_applied;
  }

  std::string out = "{\"handle\":" + std::to_string(p.handle);
  out += ",\"fingerprint\":";
  json_append_quoted(out, fingerprint_hex(next->fingerprint()));
  out += ",\"parent\":";
  json_append_quoted(out, fingerprint_hex(base->fingerprint()));
  out += ",\"n\":" + std::to_string(next->num_jobs());
  out += ",\"m\":" + std::to_string(next->num_machines());
  out += '}';
  return out;
}

std::string Engine::handle_close_instance(const Json& params) {
  const CloseInstanceParams p = parse_close_instance_params(params);
  std::vector<std::uint64_t> pinned;
  {
    std::lock_guard<std::mutex> lock(sess_mu_);
    const auto it = sessions_.find(p.handle);
    if (it == sessions_.end()) {
      throw ProtocolError(error_code::kUnknownHandle,
                          "unknown, closed, or expired instance handle " +
                              std::to_string(p.handle));
    }
    pinned = std::move(it->second.pinned_keys);
    session_lru_.erase(it->second.lru_it);
    sessions_.erase(it);
  }
  for (const std::uint64_t key : pinned) {
    api::PrecomputeCache::global().unpin(key);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sessions_closed;
  }
  return "{\"handle\":" + std::to_string(p.handle) + ",\"closed\":true}";
}

std::vector<std::uint64_t> Engine::expire_lru_session_locked() {
  std::vector<std::uint64_t> keys;
  if (session_lru_.empty()) return keys;
  const std::uint64_t victim = session_lru_.front();
  session_lru_.pop_front();
  const auto it = sessions_.find(victim);
  if (it != sessions_.end()) {
    keys = std::move(it->second.pinned_keys);
    sessions_.erase(it);
  }
  return keys;
}

std::shared_ptr<const core::Instance> Engine::resolve_instance(
    const SolveParams& p) {
  if (!p.has_handle) return parse_instance(p.instance_text);
  std::lock_guard<std::mutex> lock(sess_mu_);
  const auto it = sessions_.find(p.handle);
  if (it == sessions_.end()) {
    throw ProtocolError(error_code::kUnknownHandle,
                        "unknown, closed, or expired instance handle " +
                            std::to_string(p.handle));
  }
  // Touch: a handle in active use is the last to expire.
  session_lru_.splice(session_lru_.end(), session_lru_, it->second.lru_it);
  return it->second.instance;
}

void Engine::pin_key_for_session(std::uint64_t handle, std::uint64_t key,
                                 const core::Instance* inst) {
  std::lock_guard<std::mutex> lock(sess_mu_);
  const auto it = sessions_.find(handle);
  // The session may have been closed or expired while this request was in
  // flight; its instance shared_ptr keeps the request alive, but there is
  // no session left to own a pin. Likewise an update_instance may have
  // swapped the handle's instance since this request resolved it: the key
  // then belongs to the parent, whose pins the update already released.
  if (it == sessions_.end() || it->second.instance.get() != inst) return;
  auto& keys = it->second.pinned_keys;
  if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
  keys.push_back(key);
  api::PrecomputeCache::global().pin(key);
}

std::shared_ptr<const Engine::Prepared> Engine::prepare(
    std::shared_ptr<const core::Instance> inst, const std::string& solver,
    const api::SolverOptions& opt, std::uint64_t session_handle) {
  // Followers of a single-flight batch attribute their wait for the
  // leader's precompute to the prepare phase too — from the request's
  // point of view that wait IS the prepare.
  ScopedPhase phase(kPhasePrepare);
  const api::SolverRegistry& reg = api::SolverRegistry::global();
  const std::string resolved =
      solver == "auto" ? api::SolverRegistry::dispatch(*inst) : solver;
  if (!reg.contains(resolved)) {
    throw ProtocolError(error_code::kUnknownSolver,
                        "unknown solver '" + resolved + "'");
  }
  const std::uint64_t key =
      api::SolverRegistry::prepare_key(*inst, resolved, opt);
  if (session_handle != 0) {
    pin_key_for_session(session_handle, key, inst.get());
  }

  std::shared_future<std::shared_ptr<const Prepared>> fut;
  std::promise<std::shared_ptr<const Prepared>> prom;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(sf_mu_);
    const auto it = inflight_prepares_.find(key);
    if (it == inflight_prepares_.end()) {
      leader = true;
      inflight_prepares_.emplace(key, prom.get_future().share());
    } else {
      fut = it->second;
    }
  }
  if (!leader) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.coalesced;
    }
    return fut.get();  // rethrows the leader's failure, if any
  }
  try {
    auto prep = std::make_shared<Prepared>();
    prep->instance = std::move(inst);
    prep->solver = reg.prepare(*prep->instance, resolved, opt);
    prom.set_value(prep);
    std::lock_guard<std::mutex> lock(sf_mu_);
    inflight_prepares_.erase(key);
    return prep;
  } catch (...) {
    prom.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(sf_mu_);
      inflight_prepares_.erase(key);
    }
    throw;
  }
}

std::string Engine::handle_solve(const Json& params) {
  const SolveParams p = parse_solve_params(params);
  auto inst = resolve_instance(p);
  const auto prep = prepare(std::move(inst), p.solver, p.options,
                            p.has_handle ? p.handle : 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.solves;
  }
  const core::Instance& instance = *prep->instance;
  std::string out = "{\"solver\":";
  json_append_quoted(out, prep->solver.name);
  out += ",\"n\":" + std::to_string(instance.num_jobs());
  out += ",\"m\":" + std::to_string(instance.num_machines());
  out += ",\"fingerprint\":";
  json_append_quoted(out, fingerprint_hex(instance.fingerprint()));
  if (p.want_lower_bound) {
    const algos::LowerBound lb =
        prepared_lower_bound(instance, prep->solver, p.options.lp1);
    out += ",\"lower_bound\":" + util::fmt(lb.value, 6);
  }
  out += '}';
  return out;
}

namespace {

/// Runner options shared by every estimate execution path: fully serial,
/// so the engine's own worker count can never show up in response bytes.
api::ExperimentRunner::Options estimate_runner_options(
    const EstimateParams& p) {
  api::ExperimentRunner::Options ropt;
  ropt.seed = p.seed;
  ropt.replications = p.replications;
  ropt.semantics = p.semantics;
  ropt.strict_eligibility = p.strict_eligibility;
  ropt.step_cap = p.step_cap;
  ropt.skip_capped = true;
  ropt.threads = 1;
  ropt.cell_threads = 1;
  return ropt;
}

/// The canonical shard cell: replications [lo, hi) of the estimate's
/// global sequence, seeded from seed stream 1 (the stream a one-cell
/// runner would use) by global replication index — so shard samples are
/// exactly the samples the unsharded estimate would draw.
api::Cell shard_cell(const std::shared_ptr<const core::Instance>& instance,
                     const api::PreparedSolver& solver, int lo, int hi) {
  api::Cell cell;
  cell.instance_label = "wire";
  cell.instance = instance;
  cell.factory = solver.factory;  // already prepared; skip registry
  cell.factory_label = solver.name;
  cell.seed_stream = 1;
  cell.rep_offset = lo;
  cell.replications = hi - lo;
  return cell;
}

/// One shard's print_json row bytes (no trailing newline) — by
/// construction byte-identical to the corresponding row of
/// ExperimentRunner::print_json over the whole shard grid.
std::string shard_row_json(const api::ExperimentRunner& runner) {
  std::ostringstream os;
  runner.print_json(os);
  std::string row = os.str();
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return row;
}

/// The estimate result object (shared by the plain response and the
/// terminal envelope of a stream, which must be byte-identical).
std::string estimate_result_json(const api::PreparedSolver& solver,
                                 const core::Instance& instance,
                                 int replications, int capped,
                                 const util::Estimate& makespan,
                                 const EstimateParams& p) {
  std::string out = estimate_result_body(solver.name, instance.num_jobs(),
                                         instance.num_machines(), replications,
                                         capped, makespan);
  if (p.solve.want_lower_bound) {
    const algos::LowerBound lb =
        prepared_lower_bound(instance, solver, p.solve.options.lp1);
    out += ",\"lower_bound\":" + util::fmt(lb.value, 6);
    if (lb.value > 0.0) {
      out += ",\"ratio\":" + util::fmt(makespan.mean / lb.value, 6);
    }
  }
  out += '}';
  return out;
}

}  // namespace

void Engine::handle_estimate(const Json& id, const Json& params, bool* ok,
                             const Reply& emit, const CancelToken& cancel) {
  const EstimateParams p =
      parse_estimate_params(params, cfg_.max_replications);
  // A streamed estimate through a handle marks the session busy for its
  // whole run: update_instance must not swap the instance between the
  // shard envelopes of one reply sequence (it answers busy_handle while
  // the mark is held). Plain and single-shard estimates snapshot the
  // instance up front — an update landing mid-run cannot affect their one
  // response — so they take no mark.
  const bool guarded = p.stream && p.solve.has_handle;
  if (guarded) begin_stream(p.solve.handle);
  try {
    run_estimate(id, p, ok, emit, cancel);
  } catch (...) {
    if (guarded) end_stream(p.solve.handle);
    throw;
  }
  if (guarded) end_stream(p.solve.handle);
}

void Engine::begin_stream(std::uint64_t handle) {
  std::lock_guard<std::mutex> lock(sess_mu_);
  const auto it = sessions_.find(handle);
  if (it == sessions_.end()) {
    throw ProtocolError(error_code::kUnknownHandle,
                        "unknown, closed, or expired instance handle " +
                            std::to_string(handle));
  }
  ++it->second.streams;
}

void Engine::end_stream(std::uint64_t handle) noexcept {
  std::lock_guard<std::mutex> lock(sess_mu_);
  const auto it = sessions_.find(handle);
  // The handle may have been closed or LRU-expired mid-stream; the
  // stream's instance shared_ptr kept the run alive, and there is nothing
  // left to unmark.
  if (it != sessions_.end() && it->second.streams > 0) --it->second.streams;
}

void Engine::run_estimate(const Json& id, const EstimateParams& p, bool* ok,
                          const Reply& emit, const CancelToken& cancel) {
  auto inst = resolve_instance(p.solve);
  const auto prep = prepare(std::move(inst), p.solve.solver, p.solve.options,
                            p.solve.has_handle ? p.solve.handle : 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.estimates;
    if (p.stream) ++stats_.streams;
  }
  const core::Instance& instance = *prep->instance;

  if (p.shard >= 0) {
    // Single-shard fan-out: shard s of K in one plain response, so a
    // client can spread an estimate's shards over connections/processes.
    const auto [lo, hi] = shard_range(p.replications, p.shards, p.shard);
    api::ExperimentRunner runner(estimate_runner_options(p));
    runner.add(shard_cell(prep->instance, prep->solver, lo, hi));
    const api::CellResult& r = run_runner_guarded(runner);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.shards;
    }
    std::string result = "{\"seq\":" + std::to_string(p.shard);
    result += ",\"shards\":" + std::to_string(p.shards);
    result += ",\"shard\":" + shard_row_json(runner);
    if (p.samples) {
      // Raw per-replication makespans (capped replications excluded), in
      // replication order, at 17 significant digits: a client replaying
      // every shard's samples in global order through util::OnlineStats
      // reproduces the unsharded estimate's aggregate bit-for-bit.
      result += ",\"capped\":" + std::to_string(r.capped);
      result += ",\"samples\":[";
      bool first = true;
      for (const double x : r.samples.samples()) {
        if (!first) result.push_back(',');
        first = false;
        result += json_number(x);
      }
      result += "]";
    }
    result += "}";
    *ok = true;
    emit(make_result_response(id, result), true);
    return;
  }

  if (p.stream) {
    // Streamed sharded estimate: one envelope per shard as it completes
    // (seq-ordered), then a terminal done envelope with the aggregate.
    // Shard cells seed by global replication index, so concatenating the
    // shard samples in order replays the exact Welford accumulation of the
    // unsharded estimate — the aggregate is byte-identical for any K.
    util::OnlineStats agg;
    int capped_total = 0;
    for (int s = 0; s < p.shards; ++s) {
      // The transport cancels a stream whose peer has dropped: stop
      // computing the remaining shards instead of just discarding their
      // output. The terminal error line below is itself discarded against
      // the dead connection; it exists to balance reply accounting.
      if (cancel && cancel->load(std::memory_order_relaxed)) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.streams_cancelled;
        }
        throw ProtocolError(error_code::kCancelled,
                            "client disconnected mid-stream after " +
                                std::to_string(s) + " of " +
                                std::to_string(p.shards) +
                                " shards; remaining shards cancelled");
      }
      const auto [lo, hi] = shard_range(p.replications, p.shards, s);
      api::ExperimentRunner runner(estimate_runner_options(p));
      runner.add(shard_cell(prep->instance, prep->solver, lo, hi));
      const api::CellResult& r = run_runner_guarded(runner);
      capped_total += r.capped;
      for (const double x : r.samples.samples()) agg.add(x);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.shards;
      }
      emit(make_shard_response(id, s, p.shards, shard_row_json(runner)),
           false);
    }
    const std::string result = estimate_result_json(
        prep->solver, instance, p.replications, capped_total,
        util::make_estimate(agg), p);
    *ok = true;
    emit(make_done_response(id, p.shards, result), true);
    return;
  }

  // Plain estimate. (A non-streamed request with shards > 1 lands here
  // too: sharding is pure delivery — shard seeds derive from global
  // replication indices — so the plain result is byte-identical to the
  // terminal envelope of the streamed form at any shard count, modulo the
  // documented step-cap asymmetry: a fully-capped shard is a per-shard
  // error, while this path only fails when all R replications cap.)
  api::ExperimentRunner runner(estimate_runner_options(p));
  runner.add(shard_cell(prep->instance, prep->solver, 0, p.replications));
  const api::CellResult& r = run_runner_guarded(runner);
  const std::string result = estimate_result_json(
      prep->solver, instance, r.replications, r.capped, r.makespan, p);
  *ok = true;
  emit(make_result_response(id, result), true);
}

std::string Engine::handle_stats() const {
  const Stats s = stats();
  const api::PrecomputeCache::Stats c = api::PrecomputeCache::global().stats();
  // Counters render in sorted key order within each block, so new fields
  // land in a predictable place and two stats snapshots diff cleanly.
  const std::pair<const char*, std::uint64_t> engine_fields[] = {
      {"coalesced", s.coalesced},
      {"deltas_applied", s.deltas_applied},
      {"estimates", s.estimates},
      {"failed", s.failed},
      {"inflight", s.inflight},
      {"open_handles", s.open_handles},
      {"queue_capacity", s.queue_capacity},
      {"received", s.received},
      {"rejected", s.rejected},
      {"sessions_closed", s.sessions_closed},
      {"sessions_dropped", s.sessions_dropped},
      {"sessions_expired", s.sessions_expired},
      {"sessions_opened", s.sessions_opened},
      {"shards", s.shards},
      {"slow_reader_drops", s.slow_reader_drops},
      {"solves", s.solves},
      {"streams", s.streams},
      {"streams_cancelled", s.streams_cancelled},
      {"succeeded", s.succeeded},
      {"workers", s.workers},
  };
  const std::pair<const char*, std::uint64_t> cache_fields[] = {
      {"capacity", c.capacity}, {"evictions", c.evictions},
      {"hits", c.hits},         {"misses", c.misses},
      {"pinned", c.pinned},     {"size", c.size},
  };
  std::string out = "{\"engine\":{";
  bool first = true;
  for (const auto& [name, value] : engine_fields) {
    if (!first) out.push_back(',');
    first = false;
    out += std::string("\"") + name + "\":" + std::to_string(value);
  }
  out += "},\"cache\":{";
  first = true;
  for (const auto& [name, value] : cache_fields) {
    if (!first) out.push_back(',');
    first = false;
    out += std::string("\"") + name + "\":" + std::to_string(value);
  }
  out += "}}";
  return out;
}

std::string Engine::metrics_text() const {
  obs::Registry& reg = obs::Registry::global();
  const Stats s = stats();
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"suu_engine_received_total", s.received},
      {"suu_engine_succeeded_total", s.succeeded},
      {"suu_engine_failed_total", s.failed},
      {"suu_engine_rejected_total", s.rejected},
      {"suu_engine_coalesced_total", s.coalesced},
      {"suu_engine_solves_total", s.solves},
      {"suu_engine_estimates_total", s.estimates},
      {"suu_engine_streams_total", s.streams},
      {"suu_engine_streams_cancelled_total", s.streams_cancelled},
      {"suu_engine_shards_total", s.shards},
      {"suu_engine_slow_reader_drops_total", s.slow_reader_drops},
      {"suu_engine_sessions_opened_total", s.sessions_opened},
      {"suu_engine_sessions_closed_total", s.sessions_closed},
      {"suu_engine_sessions_expired_total", s.sessions_expired},
      {"suu_engine_sessions_dropped_total", s.sessions_dropped},
      {"suu_engine_deltas_applied_total", s.deltas_applied},
  };
  for (const auto& [name, value] : counters) reg.counter(name).set(value);
  reg.gauge("suu_engine_open_handles")
      .set(static_cast<std::int64_t>(s.open_handles));
  reg.gauge("suu_engine_inflight").set(static_cast<std::int64_t>(s.inflight));
  reg.gauge("suu_engine_queue_capacity")
      .set(static_cast<std::int64_t>(s.queue_capacity));
  reg.gauge("suu_engine_workers").set(static_cast<std::int64_t>(s.workers));

  const api::PrecomputeCache::Stats c = api::PrecomputeCache::global().stats();
  reg.counter("suu_cache_hits_total").set(c.hits);
  reg.counter("suu_cache_misses_total").set(c.misses);
  reg.counter("suu_cache_evictions_total").set(c.evictions);
  reg.gauge("suu_cache_size").set(static_cast<std::int64_t>(c.size));
  reg.gauge("suu_cache_capacity").set(static_cast<std::int64_t>(c.capacity));
  reg.gauge("suu_cache_pinned").set(static_cast<std::int64_t>(c.pinned));

  reg.set_info("suu_build_info",
               std::string("version=\"") + obs::kVersion + "\",build=\"" +
                   obs::build_type() + "\",obs=\"" + obs::obs_mode() + "\"");
  return reg.render_prometheus();
}

std::string Engine::handle_metrics() const {
  std::string out = "{\"text\":";
  json_append_quoted(out, metrics_text());
  out += '}';
  return out;
}

std::string Engine::handle_trace(const Json& params) const {
  if (!params.is_object()) {
    throw ProtocolError(error_code::kBadParams,
                        "trace needs a params object with a 'trace' id");
  }
  std::string trace_id;
  for (const auto& [key, value] : params.as_object("params")) {
    if (key != "trace") {
      throw ProtocolError(error_code::kBadParams,
                          "unknown params key '" + key + "'");
    }
    trace_id = value.as_string("trace");
  }
  if (trace_id.empty()) {
    throw ProtocolError(error_code::kBadParams,
                        "trace needs a non-empty 'trace' id");
  }
  const std::vector<obs::Span> spans = obs::SpanLog::global().snapshot(trace_id);
  std::string out = "{\"trace\":";
  json_append_quoted(out, trace_id);
  out += ",\"spans\":[";
  bool first = true;
  for (const obs::Span& s : spans) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    json_append_quoted(out, s.name);
    out += ",\"start_us\":" + std::to_string(s.start_us);
    out += ",\"dur_us\":" + std::to_string(s.dur_us);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Engine::handle_shutdown() {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (!hook_fired_ && shutdown_hook_) {
      hook_fired_ = true;
      hook = shutdown_hook_;
    }
  }
  if (hook) hook();
  return "{\"stopping\":true}";
}

}  // namespace suu::service
