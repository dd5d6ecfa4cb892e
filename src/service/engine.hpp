// suu::serve — the transport-independent solver service engine.
//
// Engine turns one wire-protocol request line (see service/protocol.hpp)
// into one or more response lines. It can be driven three ways:
//
//   * handle(line)      — synchronous, for library embedding and tests;
//                         multi-line (streamed) responses come back joined
//                         with '\n';
//   * submit(line, cb)  — asynchronous: the request passes a bounded
//                         admission queue and is executed on the engine's
//                         util::ThreadPool; cb receives each response line
//                         in order, with last == true exactly once on the
//                         final line (inline on admission failure);
//   * a transport       — service/transport.hpp pumps bytes from stdio
//                         or loopback TCP sockets (service/eventloop.hpp)
//                         into submit.
//
// Invariants the rest of the PR (and the tests) rely on:
//
//   Determinism. The response to list_solvers/solve/estimate is a pure
//   function of the request line: fixed JSON key order, fixed number
//   formatting, no timing- or concurrency-dependent fields. Byte-identical
//   requests get byte-identical responses at any worker count. (stats and
//   the session methods are the deliberate exceptions — stats reports live
//   counters, and open_instance assigns handles from a per-engine counter.
//   Everything *keyed by* a handle is still deterministic: a solve/estimate
//   through a handle answers byte-identically to the same request with the
//   instance inlined.)
//
//   Sessions. open_instance parses and fingerprints an instance once and
//   returns a server-assigned handle; solve/estimate accept {"handle": h}
//   in place of inline instance bytes, skipping the per-request parse.
//   Prepare keys reached through a handle are pinned in the
//   api::PrecomputeCache (pin-aware LRU: pinned entries are never evicted)
//   until close_instance, until update_instance swaps the handle's
//   instance, or until the handle itself is expired least-recently-used
//   when max_open_handles is exceeded. Unknown, closed, and expired
//   handles all answer with the typed error "unknown_handle".
//
//   Streamed sharded estimates. estimate with {"stream": true, "shards": K}
//   partitions the replication sequence [0, R) into K deterministic
//   contiguous shards and emits one envelope per shard as it completes
//   (ordered "seq" fields) plus a terminal "done" envelope carrying the
//   aggregate. Shard s's replications draw their seeds from their *global*
//   replication indices, so the aggregate is byte-identical to the
//   unstreamed estimate for any K, and the concatenated shard tables are
//   byte-identical to api::ExperimentRunner::print_json over the canonical
//   shard grid at any worker count. {"shard": s, "shards": K} instead
//   answers with just shard s in a plain response, so a client can fan one
//   estimate's shards out across connections. One deliberate asymmetry:
//   a shard whose replications ALL hit the step cap is a "capped" error
//   for that shard (terminating a stream early), while the plain estimate
//   only fails when all R replications cap — step-cap exhaustion is a
//   per-shard error under sharding.
//
//   Single-flight batching. Concurrent solve/estimate requests whose
//   (instance fingerprint, resolved solver, options) prepare-key coincide
//   are coalesced: one leader runs SolverRegistry::prepare (and thereby
//   the api::PrecomputeCache miss path) while followers wait for the
//   leader's prepared solver — the expensive LP/DP precompute runs exactly
//   once no matter how many identical requests arrive at once. Followers
//   also share the leader's parsed Instance, which keeps borrowed-pointer
//   factories (exact-dp, width-dp) valid for the whole batch.
//
//   Bounded admission. At most queue_capacity requests may be admitted
//   (queued + executing) at once; beyond that submit replies immediately
//   with an "overloaded" error instead of buffering without bound.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/registry.hpp"
#include "core/io.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"

namespace suu::service {

class Engine {
 public:
  struct Config {
    /// Worker threads draining the admission queue (0 = hardware
    /// concurrency).
    unsigned workers = 0;
    /// Maximum admitted (queued + executing) requests before submit
    /// replies "overloaded".
    std::size_t queue_capacity = 256;
    /// Requests longer than this are rejected before parsing.
    std::size_t max_line_bytes = std::size_t{4} << 20;
    /// Caps on untrusted instance payloads (see core::ReadLimits).
    core::ReadLimits read_limits;
    /// Upper bound on per-request Monte-Carlo replications.
    int max_replications = 1'000'000;
    /// Maximum concurrently open instance handles (0 is clamped to 1).
    /// Opening one more expires the least-recently-used handle (counted in
    /// Stats::sessions_expired); requests naming an expired handle get the
    /// typed error "unknown_handle".
    std::size_t max_open_handles = 64;
    /// TCP read-idle timeout in milliseconds: the epoll loop's timer
    /// queue stops reading from a connection that stays silent this long,
    /// drains its queued replies and closes it, so a half-open peer cannot
    /// hold its fd and session forever. 0 disables the timeout.
    int idle_timeout_ms = 0;
    /// Slow-reader bound for the epoll transport: a connection whose
    /// queued-but-unwritten reply bytes exceed this is disconnected
    /// (Stats::slow_reader_drops) instead of buffering without bound.
    std::size_t max_outbound_bytes = std::size_t{8} << 20;
    /// Dump a one-line span trace (phases + dominant phase) for any
    /// request whose total wall time reaches this many milliseconds.
    /// 0 disables the slow log.
    int slow_log_ms = 0;
    /// Where slow-request lines go; stderr when unset. Tests inject a
    /// capture sink here.
    std::function<void(const std::string&)> slow_log_sink;
  };

  /// Live engine counters, surfaced on the wire by the `stats` method.
  /// Request-level counters count requests, not response lines: a streamed
  /// estimate that emits K shard envelopes plus its terminal line is one
  /// `received` and one `succeeded` (or `failed`, if a shard errors
  /// mid-stream).
  struct Stats {
    /// Requests entering handle()/submit, including rejected ones.
    std::uint64_t received = 0;
    /// Requests whose final response line had "ok":true.
    std::uint64_t succeeded = 0;
    /// Requests whose final response line had "ok":false (any error code,
    /// admission rejections included).
    std::uint64_t failed = 0;
    /// Admission failures: submit replied inline with "overloaded" (queue
    /// full) or "shutting_down" (after a shutdown request). Also counted
    /// in `failed`.
    std::uint64_t rejected = 0;
    /// Prepares served by another request's in-flight prepare
    /// (single-flight): the caller waited for the leader instead of
    /// running the LP/DP precompute itself.
    std::uint64_t coalesced = 0;
    /// solve requests executed (past admission and parsing).
    std::uint64_t solves = 0;
    /// estimate requests executed, streamed or not.
    std::uint64_t estimates = 0;
    /// Streamed estimates executed ({"stream": true}); a subset of
    /// `estimates`.
    std::uint64_t streams = 0;
    /// Shard results computed: one per shard envelope of a streamed
    /// estimate and one per single-shard ({"shard": s}) request.
    std::uint64_t shards = 0;
    /// Streamed estimates terminated early because their request's
    /// CancelToken fired (the client dropped mid-stream): the remaining
    /// shards were never computed. Also counted in `failed`.
    std::uint64_t streams_cancelled = 0;
    /// Connections dropped by the epoll transport because their outbound
    /// queue exceeded Config::max_outbound_bytes (slow or vanished
    /// readers); reported via record_slow_reader_drop().
    std::uint64_t slow_reader_drops = 0;
    /// update_instance requests that installed a new instance on a live
    /// handle (rejected deltas — bad_delta, busy_handle, unknown_handle —
    /// are not counted).
    std::uint64_t deltas_applied = 0;
    /// open_instance requests that returned a handle.
    std::uint64_t sessions_opened = 0;
    /// close_instance requests that closed a live handle.
    std::uint64_t sessions_closed = 0;
    /// Handles expired least-recently-used because a new open_instance
    /// exceeded Config::max_open_handles.
    std::uint64_t sessions_expired = 0;
    /// Handles released by end_client() — the owning transport connection
    /// went away (EOF, error, idle timeout) without a close_instance.
    std::uint64_t sessions_dropped = 0;
    /// Currently open handles (gauge).
    std::size_t open_handles = 0;
    /// Requests currently admitted via submit (gauge).
    std::size_t inflight = 0;
    /// Config::queue_capacity, echoed for observability.
    std::size_t queue_capacity = 0;
    /// Resolved worker-thread count (after 0 = hardware concurrency).
    unsigned workers = 0;
  };

  /// Response sink for submit(): called once per response line, in order,
  /// with `last` true exactly once on the final line of the request.
  using Reply = std::function<void(std::string&&, bool last)>;

  /// Cooperative cancellation handle for submitted requests. A transport
  /// stores true when the requesting peer is gone; the engine checks it
  /// between the shards of a streamed estimate and stops computing
  /// (Stats::streams_cancelled) — the request still emits a final
  /// (discarded) error line so reply accounting stays balanced. One token
  /// may be shared by every request of a connection: cancellation is a
  /// property of the peer, not of one request.
  using CancelToken = std::shared_ptr<std::atomic<bool>>;

  Engine() : Engine(Config{}) {}
  explicit Engine(const Config& cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Config& config() const noexcept { return cfg_; }

  /// Synchronously process one request line and return the response — one
  /// line, or for streamed estimates every envelope joined with '\n' (no
  /// admission bound; used by tests, benches, and in-process clients).
  /// Sessions opened this way are unowned (client id 0): they live until
  /// close_instance, LRU expiry, or engine teardown.
  std::string handle(const std::string& line);

  /// Asynchronously process one request line. `reply` is invoked once per
  /// response line — from a worker thread as lines complete, or inline
  /// (before submit returns) when admission fails — with `last` true on
  /// the final line. `reply` must be callable from any thread.
  /// `client` attributes any session the request opens to a transport
  /// connection (see begin_client); 0 means unowned. `cancel` (optional)
  /// lets the transport stop a streamed estimate whose peer has dropped.
  void submit(std::string line, Reply reply, std::uint64_t client = 0,
              CancelToken cancel = nullptr);

  /// Start a client scope: transports call this once per connection and
  /// pass the returned id to submit, so sessions opened over that
  /// connection are owned by it. Never returns 0 (the unowned id).
  std::uint64_t begin_client();

  /// End a client scope: every session owned by `client` is closed and
  /// its PrecomputeCache pins are released, exactly as if the peer had
  /// sent close_instance for each — a dropped connection must not leak
  /// pinned cache entries. Counted in Stats::sessions_dropped. No-op for
  /// client 0 and for unknown ids.
  void end_client(std::uint64_t client);

  /// True once a shutdown request has been processed; subsequent submits
  /// are rejected with "shutting_down".
  bool stopping() const noexcept;

  /// Invoked (once) from the worker that processes a shutdown request,
  /// after stopping() flips. Transports use it to unblock accept/read
  /// loops.
  void set_shutdown_hook(std::function<void()> hook);

  /// Block until every admitted request has been replied to.
  void drain();

  /// Count one slow-reader disconnect (Stats::slow_reader_drops). Called
  /// by the epoll transport when a connection exceeds
  /// Config::max_outbound_bytes.
  void record_slow_reader_drop();

  Stats stats() const;

  /// The Prometheus text exposition served by the `metrics` wire method
  /// and by `suu_serve --metrics-port`: refreshes the engine- and
  /// cache-mirrored metrics, then renders the process-wide obs::Registry
  /// (request/phase histograms, LP and fan-out counters included).
  std::string metrics_text() const;

 private:
  struct Prepared {
    std::shared_ptr<const core::Instance> instance;
    api::PreparedSolver solver;
  };

  /// One open instance handle: the parsed instance plus every
  /// PrecomputeCache key this session has pinned for its current instance
  /// (deduplicated; unpinned on update/close/expiry/owner teardown).
  struct Session {
    std::shared_ptr<const core::Instance> instance;
    std::vector<std::uint64_t> pinned_keys;
    std::list<std::uint64_t>::iterator lru_it;  // position in session_lru_
    std::uint64_t owner = 0;  // begin_client scope; 0 = unowned
    /// Streamed estimates currently running against this handle.
    /// update_instance refuses (busy_handle) while positive — swapping the
    /// instance mid-stream would mix two instances in one reply sequence.
    int streams = 0;
  };

  /// `queued_at_us` is the obs::now_us() timestamp at admission (submit),
  /// 0 when the request never waited in the queue (handle()).
  void process(const std::string& line, const Reply& emit,
               std::uint64_t client, std::uint64_t queued_at_us = 0,
               const CancelToken& cancel = nullptr);
  void dispatch(const Request& req, bool* ok, const Reply& emit,
                std::uint64_t client, const CancelToken& cancel);
  std::string handle_list_solvers() const;
  std::string handle_open_instance(const Json& params, std::uint64_t client);
  /// Apply a sparse delta to an open handle: validate against the current
  /// instance, re-fingerprint, and install the mutated instance on the
  /// handle, releasing the parent's cache pins (the next prepare runs
  /// cold). Typed errors: unknown_handle, bad_delta, busy_handle.
  std::string handle_update_instance(const Json& params);
  std::string handle_close_instance(const Json& params);
  std::string handle_solve(const Json& params);
  /// Emits every response line itself (shard envelopes with last == false,
  /// then the terminal line) and reports success through *ok. `cancel`
  /// (may be null) is checked between shards of a streamed estimate.
  /// Parses, then guards the session handle of a streamed run against
  /// concurrent update_instance (begin_stream/end_stream) around
  /// run_estimate, which does the work.
  void handle_estimate(const Json& id, const Json& params, bool* ok,
                       const Reply& emit, const CancelToken& cancel);
  void run_estimate(const Json& id, const EstimateParams& p, bool* ok,
                    const Reply& emit, const CancelToken& cancel);
  /// Mark a streamed estimate in flight on `handle` (throws unknown_handle
  /// when the handle is gone) / release that mark (no-op when the handle
  /// was closed or expired mid-stream).
  void begin_stream(std::uint64_t handle);
  void end_stream(std::uint64_t handle) noexcept;
  std::string handle_stats() const;
  std::string handle_metrics() const;
  std::string handle_trace(const Json& params) const;
  std::string handle_shutdown();

  /// Parse an inline payload (the parse phase of the request).
  std::shared_ptr<const core::Instance> parse_instance(
      std::string_view text) const;
  /// The request's instance: parsed from inline bytes, or looked up (and
  /// LRU-touched) in the session table. Throws ProtocolError
  /// (unknown_handle) for unknown/closed/expired handles.
  std::shared_ptr<const core::Instance> resolve_instance(const SolveParams& p);
  /// Resolve "auto", verify the solver exists, and run the single-flight
  /// prepare. When the request arrived via a session handle, the prepare
  /// key is pinned in the PrecomputeCache for the session's lifetime.
  std::shared_ptr<const Prepared> prepare(
      std::shared_ptr<const core::Instance> inst, const std::string& solver,
      const api::SolverOptions& opt, std::uint64_t session_handle);
  /// Record `key` as pinned by `handle` (first time only) and pin it in
  /// the global PrecomputeCache. No-op when the handle is gone or no
  /// longer holds `inst` (an update_instance swapped it meanwhile).
  void pin_key_for_session(std::uint64_t handle, std::uint64_t key,
                           const core::Instance* inst);
  /// Remove the LRU session; returns its pinned keys to release. Requires
  /// sess_mu_ held.
  std::vector<std::uint64_t> expire_lru_session_locked();

  Config cfg_;
  std::unique_ptr<util::ThreadPool> pool_;

  mutable std::mutex mu_;  // guards stats_, inflight_, stopping_, hook_
  Stats stats_;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  bool hook_fired_ = false;
  std::function<void()> shutdown_hook_;
  std::condition_variable idle_cv_;

  std::mutex sf_mu_;  // guards inflight_prepares_
  std::unordered_map<std::uint64_t,
                     std::shared_future<std::shared_ptr<const Prepared>>>
      inflight_prepares_;

  // Session table. Lock ordering: sess_mu_ may be taken while calling into
  // the PrecomputeCache (pin/unpin), never the reverse; sess_mu_ and mu_
  // are never held together.
  mutable std::mutex sess_mu_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::list<std::uint64_t> session_lru_;  // least recently used first
  std::uint64_t next_handle_ = 1;
  std::uint64_t next_client_ = 1;  // begin_client ids; 0 reserved = unowned

  // Engine-assigned trace ids ("srv-<n>") for requests that arrive without
  // a client "trace" envelope key.
  mutable std::atomic<std::uint64_t> next_trace_{1};
};

}  // namespace suu::service
