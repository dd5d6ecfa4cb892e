#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "util/table.hpp"

namespace suu::service {
namespace {

[[noreturn]] void bad_params(const std::string& message) {
  throw ProtocolError(error_code::kBadParams, message);
}

/// Reject unknown keys: a typo'd option silently falling back to a default
/// is the worst failure mode for a measurement service.
void check_known_keys(const Json::Object& obj,
                      std::initializer_list<const char*> known,
                      const char* where) {
  for (const auto& [key, value] : obj) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      bad_params(std::string("unknown key '") + key + "' in " + where);
    }
  }
}

bool get_bool(const Json::Object& obj, const char* key, bool def) {
  const auto it = obj.find(key);
  return it == obj.end() ? def : it->second.as_bool(key);
}

double get_finite_double(const Json::Object& obj, const char* key,
                         double def) {
  const auto it = obj.find(key);
  if (it == obj.end()) return def;
  const double v = it->second.as_double(key);
  if (!std::isfinite(v)) bad_params(std::string(key) + " must be finite");
  return v;
}

std::int64_t get_int_in(const Json::Object& obj, const char* key,
                        std::int64_t def, std::int64_t lo, std::int64_t hi) {
  const auto it = obj.find(key);
  const std::int64_t v = it == obj.end() ? def : it->second.as_int64(key);
  if (v < lo || v > hi) {
    bad_params(std::string(key) + " = " + std::to_string(v) + " outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

api::SolverOptions parse_options(const Json& options) {
  api::SolverOptions opt;
  if (options.is_null()) return opt;
  if (!options.is_object()) bad_params("options must be an object");
  const Json::Object& o = options.as_object("options");
  check_known_keys(o,
                   {"share_precompute", "reuse_cache", "random_delays",
                    "grid_rounding", "gamma_factor", "fallback_factor",
                    "lp1_simplex_size_limit"},
                   "options");
  opt.share_precompute = get_bool(o, "share_precompute", opt.share_precompute);
  opt.reuse_cache = get_bool(o, "reuse_cache", opt.reuse_cache);
  opt.random_delays = get_bool(o, "random_delays", opt.random_delays);
  opt.grid_rounding = get_bool(o, "grid_rounding", opt.grid_rounding);
  opt.gamma_factor = get_finite_double(o, "gamma_factor", opt.gamma_factor);
  if (opt.gamma_factor <= 0.0) bad_params("gamma_factor must be > 0");
  opt.fallback_factor =
      get_finite_double(o, "fallback_factor", opt.fallback_factor);
  if (opt.fallback_factor <= 0.0) bad_params("fallback_factor must be > 0");
  opt.lp1.simplex_size_limit = static_cast<int>(
      get_int_in(o, "lp1_simplex_size_limit", opt.lp1.simplex_size_limit, 0,
                 1'000'000'000));
  return opt;
}

}  // namespace

ErrorClass classify_error(std::string_view code) {
  if (code == error_code::kParseError || code == error_code::kBadRequest ||
      code == error_code::kUnknownMethod || code == error_code::kBadParams ||
      code == error_code::kBadInstance || code == error_code::kUnknownSolver ||
      code == error_code::kBadDelta || code == error_code::kCapped) {
    return ErrorClass::Fatal;
  }
  if (code == error_code::kUnknownHandle) return ErrorClass::Reopen;
  // overloaded, shutting_down, internal, busy_handle — and any code this
  // build does not know about — may clear up on retry or on another backend
  // (busy_handle: the in-flight stream drains and the handle frees up).
  return ErrorClass::Retryable;
}

Request parse_request(const std::string& line) {
  Json root;
  try {
    root = Json::parse(line);
  } catch (const JsonError& err) {
    throw ProtocolError(error_code::kParseError, err.what());
  }
  if (!root.is_object()) {
    throw ProtocolError(error_code::kBadRequest,
                        "request must be a JSON object");
  }
  // Members move out of the DOM: a params object can hold a megabyte
  // instance payload.
  Request req;
  if (Json* id = root.find("id")) {
    if (id->is_array() || id->is_object()) {
      throw ProtocolError(error_code::kBadRequest,
                          "id must be a scalar (number, string, or null)");
    }
    req.id = std::move(*id);
  }
  const Json* method = root.find("method");
  if (method == nullptr || !method->is_string()) {
    throw ProtocolError(error_code::kBadRequest,
                        "request needs a string 'method'");
  }
  req.method = method->as_string("method");
  if (Json* params = root.find("params")) {
    if (!params->is_object() && !params->is_null()) {
      throw ProtocolError(error_code::kBadRequest,
                          "params must be an object");
    }
    req.params = std::move(*params);
  }
  if (const Json* trace = root.find("trace")) {
    if (!trace->is_string()) {
      throw ProtocolError(error_code::kBadRequest, "trace must be a string");
    }
    req.trace = trace->as_string("trace");
    if (req.trace.size() > kMaxTraceIdBytes) {
      throw ProtocolError(error_code::kBadRequest,
                          "trace id longer than 128 bytes");
    }
  }
  check_known_keys(root.as_object("request"),
                   {"id", "method", "params", "trace"}, "request");
  return req;
}

bool normalize_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty();
}

Json parse_request_id(const std::string& line) noexcept {
  try {
    const Json root = Json::parse(line);
    const Json* id = root.find("id");
    if (id != nullptr && !id->is_array() && !id->is_object()) return *id;
  } catch (...) {
  }
  return Json(nullptr);
}

SolveParams parse_solve_params(const Json& params,
                               bool allow_estimate_keys) {
  if (!params.is_object()) {
    bad_params(
        "solve/estimate need a params object with an 'instance' or 'handle'");
  }
  const Json::Object& o = params.as_object("params");
  if (allow_estimate_keys) {
    check_known_keys(o,
                     {"instance", "handle", "solver", "options", "lower_bound",
                      "replications", "seed", "semantics", "strict",
                      "step_cap", "stream", "shards", "shard", "samples"},
                     "params");
  } else {
    check_known_keys(o,
                     {"instance", "handle", "solver", "options",
                      "lower_bound"},
                     "params");
  }
  SolveParams p;
  const auto inst = o.find("instance");
  const auto handle = o.find("handle");
  if ((inst == o.end()) == (handle == o.end())) {
    bad_params("exactly one of 'instance' and 'handle' must be given");
  }
  if (inst != o.end()) {
    p.instance_text = inst->second.as_string("instance");
  } else {
    p.has_handle = true;
    p.handle = static_cast<std::uint64_t>(get_int_in(
        o, "handle", 0, 1, std::numeric_limits<std::int64_t>::max()));
  }
  if (const auto it = o.find("solver"); it != o.end()) {
    p.solver = it->second.as_string("solver");
    if (p.solver.empty()) bad_params("solver must be non-empty");
  }
  if (const auto it = o.find("options"); it != o.end()) {
    p.options = parse_options(it->second);
  }
  p.want_lower_bound = get_bool(o, "lower_bound", false);
  return p;
}

EstimateParams parse_estimate_params(const Json& params,
                                     int max_replications) {
  EstimateParams p;
  p.solve = parse_solve_params(params, /*allow_estimate_keys=*/true);
  const Json::Object& o = params.as_object("params");
  p.replications = static_cast<int>(
      get_int_in(o, "replications", p.replications, 1, max_replications));
  p.seed = static_cast<std::uint64_t>(
      get_int_in(o, "seed", static_cast<std::int64_t>(p.seed), 0,
                 (std::int64_t{1} << 53)));
  if (const auto it = o.find("semantics"); it != o.end()) {
    const std::string& s = it->second.as_string("semantics");
    if (s == "coin-flips") {
      p.semantics = sim::Semantics::CoinFlips;
    } else if (s == "deferred") {
      p.semantics = sim::Semantics::Deferred;
    } else {
      bad_params("semantics must be coin-flips|deferred");
    }
  }
  p.strict_eligibility = get_bool(o, "strict", false);
  p.step_cap = get_int_in(o, "step_cap", p.step_cap, 1,
                          std::int64_t{1} << 40);
  p.stream = get_bool(o, "stream", false);
  p.shards = static_cast<int>(get_int_in(o, "shards", 1, 1, 1 << 16));
  if (p.shards > p.replications) {
    bad_params("shards = " + std::to_string(p.shards) +
               " exceeds replications = " + std::to_string(p.replications));
  }
  if (const auto it = o.find("shard"); it != o.end()) {
    p.shard = static_cast<int>(get_int_in(o, "shard", 0, 0, p.shards - 1));
    if (p.stream) {
      bad_params("'shard' selects one shard of a plain response; it cannot "
                 "be combined with 'stream'");
    }
  }
  p.samples = get_bool(o, "samples", false);
  if (p.samples && p.shard < 0) {
    bad_params("'samples' ships a shard's raw samples for client-side "
               "merging; it requires 'shard'");
  }
  return p;
}

OpenInstanceParams parse_open_instance_params(const Json& params) {
  if (!params.is_object()) {
    bad_params("open_instance needs a params object with an 'instance'");
  }
  const Json::Object& o = params.as_object("params");
  check_known_keys(o, {"instance"}, "params");
  const auto inst = o.find("instance");
  if (inst == o.end()) bad_params("missing 'instance' payload");
  OpenInstanceParams p;
  p.instance_text = inst->second.as_string("instance");
  return p;
}

CloseInstanceParams parse_close_instance_params(const Json& params) {
  if (!params.is_object()) {
    bad_params("close_instance needs a params object with a 'handle'");
  }
  const Json::Object& o = params.as_object("params");
  check_known_keys(o, {"handle"}, "params");
  if (o.find("handle") == o.end()) bad_params("missing 'handle'");
  CloseInstanceParams p;
  p.handle = static_cast<std::uint64_t>(get_int_in(
      o, "handle", 0, 1, std::numeric_limits<std::int64_t>::max()));
  return p;
}

namespace {

[[noreturn]] void bad_delta(const std::string& message) {
  throw ProtocolError(error_code::kBadDelta, message);
}

/// Decode a q-object key: a decimal flat cell index (job * m + machine).
/// Strict — no sign, no leading zeros (other than "0" itself), digits only —
/// so every cell has exactly one wire spelling and duplicate-cell edits
/// cannot hide behind alternate spellings ("01" vs "1"; the JSON object
/// would deduplicate equal spellings already).
std::int64_t parse_cell_key(const std::string& key) {
  if (key.empty() || (key.size() > 1 && key[0] == '0')) {
    bad_params("q key '" + key + "' is not a canonical decimal cell index");
  }
  std::int64_t cell = 0;
  for (const char c : key) {
    if (c < '0' || c > '9') {
      bad_params("q key '" + key + "' is not a canonical decimal cell index");
    }
    if (cell > (std::numeric_limits<std::int64_t>::max() - (c - '0')) / 10) {
      bad_params("q key '" + key + "' overflows");
    }
    cell = cell * 10 + (c - '0');
  }
  return cell;
}

std::vector<std::pair<int, int>> parse_edge_list(const Json& value,
                                                 const char* key) {
  const Json::Array& arr = value.as_array(key);
  std::vector<std::pair<int, int>> edges;
  edges.reserve(arr.size());
  for (const Json& e : arr) {
    const Json::Array& pair = e.as_array(key);
    if (pair.size() != 2) {
      bad_params(std::string(key) + " entries must be [u, v] pairs");
    }
    const std::int64_t u = pair[0].as_int64(key);
    const std::int64_t v = pair[1].as_int64(key);
    const std::int64_t lim = std::numeric_limits<int>::max();
    if (u < 0 || u > lim || v < 0 || v > lim) {
      bad_params(std::string(key) + " vertex outside [0, 2^31)");
    }
    edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
  }
  return edges;
}

}  // namespace

UpdateInstanceParams parse_update_instance_params(const Json& params) {
  if (!params.is_object()) {
    bad_params("update_instance needs a params object with a 'handle' and a "
               "delta (q/add_edges/del_edges)");
  }
  const Json::Object& o = params.as_object("params");
  check_known_keys(o, {"handle", "q", "add_edges", "del_edges"}, "params");
  if (o.find("handle") == o.end()) bad_params("missing 'handle'");
  UpdateInstanceParams p;
  p.handle = static_cast<std::uint64_t>(get_int_in(
      o, "handle", 0, 1, std::numeric_limits<std::int64_t>::max()));
  if (const auto it = o.find("q"); it != o.end()) {
    const Json::Object& q = it->second.as_object("q");
    for (const auto& [key, value] : q) {
      const std::int64_t cell = parse_cell_key(key);
      const double v = value.as_double("q value");
      if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
        bad_delta("q cell " + key + " value outside [0, 1]");
      }
      p.delta.q.emplace_back(cell, v);
    }
  }
  if (const auto it = o.find("add_edges"); it != o.end()) {
    p.delta.add_edges = parse_edge_list(it->second, "add_edges");
  }
  if (const auto it = o.find("del_edges"); it != o.end()) {
    p.delta.del_edges = parse_edge_list(it->second, "del_edges");
  }
  if (p.delta.empty()) {
    bad_delta("empty delta: at least one of q/add_edges/del_edges must make "
              "an edit");
  }
  return p;
}

std::pair<int, int> shard_range(int replications, int shards, int shard) {
  SUU_CHECK(shards >= 1 && shards <= replications);
  SUU_CHECK(shard >= 0 && shard < shards);
  const auto r = static_cast<std::int64_t>(replications);
  const int lo = static_cast<int>(r * shard / shards);
  const int hi = static_cast<int>(r * (shard + 1) / shards);
  return {lo, hi};
}

std::string estimate_result_body(const std::string& solver, int n, int m,
                                 int replications, int capped,
                                 const util::Estimate& makespan) {
  std::string out = "{\"solver\":";
  json_append_quoted(out, solver);
  out += ",\"n\":" + std::to_string(n);
  out += ",\"m\":" + std::to_string(m);
  out += ",\"replications\":" + std::to_string(replications);
  out += ",\"capped\":" + std::to_string(capped);
  out += ",\"mean\":" + util::fmt(makespan.mean, 6);
  out += ",\"ci95\":" + util::fmt(makespan.ci95_half, 6);
  out += ",\"stddev\":" + util::fmt(makespan.stddev, 6);
  out += ",\"min\":" + util::fmt(makespan.min, 6);
  out += ",\"max\":" + util::fmt(makespan.max, 6);
  return out;
}

std::string make_result_response(const Json& id,
                                 const std::string& result_json) {
  std::string out = "{\"id\":";
  out += id.dump();
  out += ",\"ok\":true,\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string make_error_response(const Json& id, const std::string& code,
                                const std::string& message) {
  std::string out = "{\"id\":";
  out += id.dump();
  out += ",\"ok\":false,\"error\":{\"code\":";
  json_append_quoted(out, code);
  out += ",\"message\":";
  json_append_quoted(out, message);
  out += "}}";
  return out;
}

std::string make_shard_response(const Json& id, int seq, int shards,
                                const std::string& shard_json) {
  std::string out = "{\"id\":";
  out += id.dump();
  out += ",\"ok\":true,\"seq\":" + std::to_string(seq);
  out += ",\"shards\":" + std::to_string(shards);
  out += ",\"shard\":";
  out += shard_json;
  out += '}';
  return out;
}

std::string make_done_response(const Json& id, int shards,
                               const std::string& result_json) {
  std::string out = "{\"id\":";
  out += id.dump();
  out += ",\"ok\":true,\"seq\":" + std::to_string(shards);
  out += ",\"shards\":" + std::to_string(shards);
  out += ",\"done\":true,\"result\":";
  out += result_json;
  out += '}';
  return out;
}

}  // namespace suu::service
