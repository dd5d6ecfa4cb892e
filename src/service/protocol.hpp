// suu::serve wire protocol — line-delimited JSON over any byte transport.
//
// One request per line, one response per line; responses carry the
// request's `id` so a client may pipeline requests and match replies out
// of order. The full spec lives in docs/wire-protocol.md;
// the shape is:
//
//   request:  {"id": <scalar>, "method": "<name>", "params": {...}}
//   success:  {"id": <scalar>, "ok": true,  "result": {...}}
//   failure:  {"id": <scalar>, "ok": false, "error": {"code": "...",
//                                                     "message": "..."}}
//
// Methods: list_solvers, open_instance, update_instance, close_instance,
// solve, estimate, stats, metrics, trace, shutdown. A streamed estimate
// ({"stream": true})
// answers with several lines for one id: per-shard envelopes carrying
// ordered "seq" fields, then one terminal envelope with "done": true (see
// make_shard_response / make_done_response below and docs/wire-protocol.md).
// Requests may carry an optional "trace" envelope key (string, <= 128
// bytes): a trace id recorded with the request's spans and readable via
// the trace method; never echoed in responses (docs/observability.md).
//
// Hardening stance: every field is validated with a typed error before any
// work runs — unknown methods, unknown params keys, wrong types, and
// malformed instance payloads each map to a distinct error code, and no
// input can reach an assert or abort. Response serialization is
// deterministic: fixed key order, fixed number formatting (util::fmt for
// measured quantities, so service bytes match ExperimentRunner::print_json
// bytes for the same computation).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "api/registry.hpp"
#include "core/delta.hpp"
#include "service/json.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace suu::service {

/// Error codes the protocol can return. Kept as an enum so the engine's
/// dispatch is exhaustive; codes() gives the wire spelling.
namespace error_code {
inline constexpr const char* kParseError = "parse_error";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownMethod = "unknown_method";
inline constexpr const char* kBadParams = "bad_params";
inline constexpr const char* kBadInstance = "bad_instance";
inline constexpr const char* kUnknownSolver = "unknown_solver";
inline constexpr const char* kUnknownHandle = "unknown_handle";
/// update_instance: the delta is malformed or would produce an invalid
/// instance (cycle, duplicate edge, q outside [0,1], ...). Fatal — the
/// same delta fails identically everywhere.
inline constexpr const char* kBadDelta = "bad_delta";
/// update_instance: the handle has a streamed estimate in flight; mutating
/// it mid-stream would mix two instances in one reply sequence. Retryable —
/// the stream drains and the same update then succeeds.
inline constexpr const char* kBusyHandle = "busy_handle";
inline constexpr const char* kCapped = "capped";
/// Server-internal: a streamed estimate stopped because its peer dropped
/// mid-stream (the transport set the request's CancelToken). The line
/// carrying it is written to a dead connection, so clients never observe
/// this code in practice; classify_error treats it as any unknown code.
inline constexpr const char* kCancelled = "cancelled";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kInternal = "internal";
}  // namespace error_code

/// How a fan-out client should react to a wire error code. The coordinator
/// in src/client/ keys every retry/failover decision off this table, so it
/// lives next to the codes it classifies (docs/wire-protocol.md, "Retryable
/// vs fatal errors").
enum class ErrorClass {
  /// The request itself is wrong (bad params, bad instance, unknown
  /// solver/method, capped): every backend gives the same answer, so
  /// retrying anywhere is wasted work.
  Fatal,
  /// A backend-local, transient condition (overloaded, shutting_down,
  /// internal): the same request may succeed later or on another backend.
  Retryable,
  /// The session handle is gone (unknown_handle): re-open the instance on
  /// that backend and retry — the request is fine, the session is not.
  Reopen,
};

/// Classify a wire error code. Unrecognized codes are Retryable: a newer
/// server's code a client does not know is indistinguishable from a
/// transient fault, and retrying is the safe default.
ErrorClass classify_error(std::string_view code);

/// A protocol violation carrying its wire error code. Thrown by the parse
/// helpers below and by the engine's handlers; the engine converts it into
/// an error response for the offending request.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// Parsed request envelope. `id` is any JSON scalar (echoed verbatim in
/// the response; null when the client omitted it); `params` is the params
/// object or null. `trace` is the optional client-supplied trace id
/// (docs/observability.md) — it tags spans recorded while the request runs
/// and is never echoed in responses, so it cannot perturb response bytes.
struct Request {
  Json id;
  std::string method;
  Json params;
  std::string trace;
};

/// Longest accepted "trace" envelope value — bounds span-log memory per
/// request and keeps slow-log lines readable.
inline constexpr std::size_t kMaxTraceIdBytes = 128;

/// Transport framing: strip a trailing '\r' from one newline-split line
/// (CRLF tolerance) and report whether anything is left to submit. Every
/// transport applies it before handing a line to the engine.
bool normalize_line(std::string& line);

/// Parse one request line. Throws ProtocolError (kParseError on malformed
/// JSON, kBadRequest on a malformed envelope). On envelope errors the id
/// is recovered when possible so the error response can still be matched;
/// see parse_request_id.
Request parse_request(const std::string& line);

/// Best-effort id extraction from a line that failed parse_request — the
/// error response should still carry the id when the envelope was a valid
/// object. Returns null Json when unrecoverable.
Json parse_request_id(const std::string& line) noexcept;

/// Shared solve/estimate parameters. The instance arrives either inline
/// (`instance`, a suu-instance v1 payload parsed per request) or as a
/// session handle (`handle`, from a prior open_instance — the server-side
/// parsed instance is reused). Exactly one of the two must be present.
/// `instance_text` views the payload inside the params Json it was decoded
/// from, so that Json must outlive it; the payload is never copied.
struct SolveParams {
  std::string_view instance_text; ///< inline payload; empty when by handle
  bool has_handle = false;        ///< instance referenced by session handle
  std::uint64_t handle = 0;       ///< valid iff has_handle
  std::string solver = "auto";    ///< registry name or "auto"
  api::SolverOptions options;     ///< decoded from params.options
  bool want_lower_bound = false;  ///< compute lower_bound_auto and report it
};

/// estimate = solve + Monte-Carlo measurement knobs + sharding. The
/// replication sequence [0, R) can be partitioned into `shards` contiguous
/// shards: `stream` answers with one envelope per shard plus a terminal
/// aggregate, `shard` selects a single shard for one plain response (so a
/// client can fan the shards of one estimate out across connections).
struct EstimateParams {
  SolveParams solve;
  int replications = 400;
  std::uint64_t seed = 1;
  sim::Semantics semantics = sim::Semantics::CoinFlips;
  bool strict_eligibility = false;
  std::int64_t step_cap = 10'000'000;
  bool stream = false;  ///< emit per-shard envelopes + terminal done
  int shards = 1;       ///< deterministic contiguous partition count
  int shard = -1;       ///< single-shard selection; -1 = all shards
  /// Include the shard's raw makespan samples (round-trippable 17-digit
  /// doubles, replication order) and capped count in a single-shard
  /// response, so a fan-out client can merge shard replies into an
  /// aggregate byte-identical to the unsharded estimate. Only valid with
  /// `shard`.
  bool samples = false;
};

/// open_instance / close_instance parameters. `instance_text` views the
/// payload inside the params Json, like SolveParams::instance_text.
struct OpenInstanceParams {
  std::string_view instance_text;  ///< suu-instance v1 payload (required)
};
struct CloseInstanceParams {
  std::uint64_t handle = 0;
};

/// update_instance parameters: a sparse delta against the instance an open
/// handle currently holds. Wire grammar (docs/wire-protocol.md):
///   {"handle": N,
///    "q": {"<cell>": v, ...},        // cell = job * m + machine, v in [0,1]
///    "add_edges": [[u, v], ...],     // applied after del_edges
///    "del_edges": [[u, v], ...]}
/// At least one of q/add_edges/del_edges must be present and non-empty —
/// an empty update is almost certainly a client bug, so it is rejected
/// rather than silently re-fingerprinting to the same instance.
struct UpdateInstanceParams {
  std::uint64_t handle = 0;
  core::InstanceDelta delta;
};

/// Decode params for solve/estimate. Unknown keys and type mismatches
/// throw ProtocolError(kBadParams). `max_replications` bounds the work one
/// request may demand. A plain solve rejects the estimate-only keys unless
/// `allow_estimate_keys` is set (used by parse_estimate_params).
SolveParams parse_solve_params(const Json& params,
                               bool allow_estimate_keys = false);
EstimateParams parse_estimate_params(const Json& params, int max_replications);
OpenInstanceParams parse_open_instance_params(const Json& params);
CloseInstanceParams parse_close_instance_params(const Json& params);
/// Decode update_instance params. Structural violations (wrong types,
/// unknown keys, q keys that are not decimal cell indices, edge pairs that
/// are not 2-int arrays) throw kBadParams; delta-content violations the
/// parser can already see (non-finite / out-of-[0,1] q values, an entirely
/// empty delta) throw kBadDelta. Semantic violations against the base
/// instance (unknown edges, cycles, out-of-range cells) surface later,
/// from core::apply_delta.
UpdateInstanceParams parse_update_instance_params(const Json& params);

/// The deterministic contiguous shard partition: shard s of K over R
/// replications covers [floor(s*R/K), floor((s+1)*R/K)). Requires
/// 0 <= s < K <= R.
std::pair<int, int> shard_range(int replications, int shards, int shard);

/// The estimate result object WITHOUT its closing brace or the optional
/// lower-bound suffix — the part a fan-out client can rebuild from merged
/// shard replies (append '}' to finish it). Shared by the engine's
/// estimate responses and client::ShardCoordinator's merge so the two stay
/// byte-identical by construction.
std::string estimate_result_body(const std::string& solver, int n, int m,
                                 int replications, int capped,
                                 const util::Estimate& makespan);

/// Response lines (no trailing newline). `result_json` must already be a
/// serialized JSON value; the id is serialized via Json::dump.
std::string make_result_response(const Json& id, const std::string& result_json);
std::string make_error_response(const Json& id, const std::string& code,
                                const std::string& message);

/// Streamed-estimate envelopes. Shard envelope seq runs 0..shards-1 in
/// order; the terminal envelope has seq == shards, "done": true, and the
/// aggregate estimate as its result. All lines echo the request id.
std::string make_shard_response(const Json& id, int seq, int shards,
                                const std::string& shard_json);
std::string make_done_response(const Json& id, int shards,
                               const std::string& result_json);

}  // namespace suu::service
