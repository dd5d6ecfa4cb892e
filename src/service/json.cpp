#include "service/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace suu::service {
namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json run() {
    skip_ws();
    Json v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail_at("trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail_at(const std::string& what) const {
    fail(what + " at byte " + std::to_string(pos_));
  }

  bool eof() const noexcept { return pos_ >= s_.size(); }
  char peek() const {
    if (eof()) fail_at("unexpected end of input");
    return s_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail_at(std::string("expected '") + c + "'");
    }
  }
  void skip_ws() {
    while (!eof()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > Json::kMaxDepth) fail_at("nesting depth limit exceeded");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail_at("bad literal");
        return Json(nullptr);
      case 't':
        if (!consume_literal("true")) fail_at("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail_at("bad literal");
        return Json(false);
      case '"':
        return Json(string());
      case '[':
        return array(depth);
      case '{':
        return object(depth);
      default:
        return number();
    }
  }

  Json array(int depth) {
    expect('[');
    Json::Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      skip_ws();
      out.push_back(value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return Json(std::move(out));
      if (c != ',') {
        --pos_;
        fail_at("expected ',' or ']' in array");
      }
    }
  }

  Json object(int depth) {
    expect('{');
    Json::Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail_at("expected string key in object");
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      Json val = value(depth + 1);
      if (!out.emplace(std::move(key), std::move(val)).second) {
        fail_at("duplicate object key");
      }
      skip_ws();
      const char c = take();
      if (c == '}') return Json(std::move(out));
      if (c != ',') {
        --pos_;
        fail_at("expected ',' or '}' in object");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail_at("bad \\u escape digit");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Append the run of plain bytes up to the next quote, backslash or
      // control character at once.
      const std::size_t run = pos_;
      while (!eof()) {
        const auto b = static_cast<unsigned char>(s_[pos_]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++pos_;
      }
      out.append(s_.data() + run, pos_ - run);
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        --pos_;
        fail_at("unescaped control character in string");
      }
      const char e = take();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (take() != '\\' || take() != 'u') {
              fail_at("high surrogate not followed by \\u low surrogate");
            }
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail_at("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail_at("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail_at("bad escape character");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (!eof() && s_[pos_] == '-') ++pos_;
    // Integer part: 0 | [1-9][0-9]*
    if (eof() || s_[pos_] < '0' || s_[pos_] > '9') fail_at("bad number");
    if (s_[pos_] == '0') {
      ++pos_;
    } else {
      while (!eof() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (!eof() && s_[pos_] == '.') {
      ++pos_;
      if (eof() || s_[pos_] < '0' || s_[pos_] > '9') fail_at("bad fraction");
      while (!eof() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (!eof() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (!eof() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (eof() || s_[pos_] < '0' || s_[pos_] > '9') fail_at("bad exponent");
      while (!eof() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    double v = 0.0;
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last) fail_at("number out of range");
    return Json(v);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool(const char* what) const {
  if (!is_bool()) fail(std::string(what) + " must be a boolean");
  return std::get<bool>(v_);
}

double Json::as_double(const char* what) const {
  if (!is_number()) fail(std::string(what) + " must be a number");
  return std::get<double>(v_);
}

std::int64_t Json::as_int64(const char* what) const {
  const double d = as_double(what);
  constexpr double kLim = 9007199254740992.0;  // 2^53
  if (!(std::nearbyint(d) == d) || d < -kLim || d > kLim) {
    fail(std::string(what) + " must be an integer");
  }
  return static_cast<std::int64_t>(d);
}

const std::string& Json::as_string(const char* what) const {
  if (!is_string()) fail(std::string(what) + " must be a string");
  return std::get<std::string>(v_);
}

const Json::Array& Json::as_array(const char* what) const {
  if (!is_array()) fail(std::string(what) + " must be an array");
  return std::get<Array>(v_);
}

const Json::Object& Json::as_object(const char* what) const {
  if (!is_object()) fail(std::string(what) + " must be an object");
  return std::get<Object>(v_);
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& o = std::get<Object>(v_);
  const auto it = o.find(key);
  return it == o.end() ? nullptr : &it->second;
}

Json* Json::find(const std::string& key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

void json_append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) {
    fail("NaN/Infinity is not representable in JSON");
  }
  constexpr double kLim = 9007199254740992.0;  // 2^53
  if (std::nearbyint(v) == v && v >= -kLim && v <= kLim) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Json::dump_to(std::string& out) const {
  switch (v_.index()) {
    case 0: out += "null"; break;
    case 1: out += std::get<bool>(v_) ? "true" : "false"; break;
    case 2: out += json_number(std::get<double>(v_)); break;
    case 3: json_append_quoted(out, std::get<std::string>(v_)); break;
    case 4: {
      out.push_back('[');
      const Array& a = std::get<Array>(v_);
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out.push_back(',');
        a[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case 5: {
      out.push_back('{');
      const Object& o = std::get<Object>(v_);
      bool first = true;
      for (const auto& [k, v] : o) {
        if (!first) out.push_back(',');
        first = false;
        json_append_quoted(out, k);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace suu::service
