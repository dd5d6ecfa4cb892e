// suu::service — minimal hardened JSON for the wire protocol.
//
// The service parses untrusted bytes, so this parser is strict and bounded
// by construction: RFC 8259 grammar only (no comments, no trailing commas,
// no NaN/Infinity literals), a hard nesting-depth cap, duplicate object
// keys rejected, full \uXXXX escape handling including surrogate pairs, and
// locale-independent number conversion via std::from_chars. Anything else
// raises JsonError — never an assert, never undefined behavior.
//
// Objects store their members in a std::map, so dump() output is key-sorted
// and deterministic: serializing the same value always yields the same
// bytes, which the protocol layer relies on for reproducible responses.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace suu::service {

/// Raised on malformed JSON text and on type-mismatched accessor calls.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Maximum nesting depth parse() accepts (arrays + objects combined).
  static constexpr int kMaxDepth = 64;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<double>(i)) {}
  Json(std::int64_t i) : v_(static_cast<double>(i)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(v_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(v_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(v_); }

  /// Checked accessors; throw JsonError naming `what` on type mismatch.
  bool as_bool(const char* what) const;
  double as_double(const char* what) const;
  /// Requires an integral number exactly representable as int64.
  std::int64_t as_int64(const char* what) const;
  const std::string& as_string(const char* what) const;
  const Array& as_array(const char* what) const;
  const Object& as_object(const char* what) const;

  /// Object member lookup; nullptr when absent or when this is not an
  /// object. The mutable overload lets a caller move a member out.
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key);

  /// Parse exactly one JSON value spanning all of `text` (surrounding
  /// whitespace allowed). Throws JsonError on any violation.
  static Json parse(std::string_view text);

  /// Serialize deterministically (object keys sorted, integral numbers
  /// without a fraction, 17-significant-digit floats otherwise).
  std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Append the JSON string literal for `s` (quotes included) to `out`,
/// escaping per RFC 8259. Shared with the protocol layer's hand-built
/// response lines.
void json_append_quoted(std::string& out, std::string_view s);

/// Deterministic JSON number text for `v`: integral values in [-2^53, 2^53]
/// print without a fraction; everything else at 17 significant digits.
/// Throws JsonError for NaN/Infinity (not representable in JSON).
std::string json_number(double v);

}  // namespace suu::service
