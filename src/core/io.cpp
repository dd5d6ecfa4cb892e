#include "core/io.hpp"

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>

#include "util/check.hpp"

namespace suu::core {
namespace {

constexpr std::string_view kMagic = "suu-instance";
constexpr std::string_view kVersion = "v1";

[[noreturn]] void parse_fail(const std::string& what) {
  throw ParseError("instance parse error: " + what);
}

// Token separators: the C locale's whitespace (space, \t, \n, \v, \f, \r).
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// One cursor over the text: skips whitespace and comments, then hands out
// the next token as a view into the text.
class Reader {
 public:
  explicit Reader(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  std::string_view token(const char* what) {
    skip(what);
    const char* begin = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {begin, static_cast<std::size_t>(pos_ - begin)};
  }

  // Move to the next token's first byte, past whitespace and comments.
  void skip(const char* what) {
    for (;;) {
      while (pos_ != end_ && is_space(*pos_)) ++pos_;
      if (pos_ == end_) {
        parse_fail(std::string("unexpected end of stream while reading ") +
                   what);
      }
      if (*pos_ != '#') break;
      const void* nl =
          std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
      pos_ = nl != nullptr ? static_cast<const char*>(nl) + 1 : end_;
    }
  }

  // The next token, read exactly as std::strtod (T = double) or
  // std::strtol (T = long, base 10) read it: accepted only when they
  // consume the whole token without ERANGE. std::from_chars reads the same
  // decimal grammar, so a token it reads to its end gets their value and is
  // taken in place. The exception is a subnormal double, which std::strtod
  // flags with ERANGE when it is inexact. That case and every other token
  // (a leading '+', a hex float, out of range, malformed) is rare and goes
  // through std::strtod / std::strtol themselves.
  template <class T>
  T next(const char* kind, const char* what) {
    skip(what);
    T v{};
    const auto [ptr, ec] = std::from_chars(pos_, end_, v);
    bool in_place = ec == std::errc() && (ptr == end_ || is_space(*ptr));
    if constexpr (std::is_same_v<T, double>) {
      in_place = in_place && !(std::fabs(v) > 0.0 && std::fabs(v) <= DBL_MIN);
    }
    if (in_place) {
      pos_ = ptr;
      return v;
    }
    const std::string tok(token(what));
    const char* first = tok.c_str();
    char* last = nullptr;
    errno = 0;
    if constexpr (std::is_same_v<T, double>) {
      v = std::strtod(first, &last);
    } else {
      v = std::strtol(first, &last, 10);
    }
    if (errno == ERANGE || last == first || last != first + tok.size()) {
      parse_fail(std::string("bad ") + kind + " '" + tok + "' for " + what);
    }
    return v;
  }

 private:
  const char* pos_;
  const char* end_;
};

std::string read_all(std::istream& is) {
  std::string text;
  char buf[1 << 14];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

}  // namespace

void write_instance(std::ostream& os, const Instance& inst) {
  os << kMagic << ' ' << kVersion << '\n';
  os << inst.num_jobs() << ' ' << inst.num_machines() << '\n';
  os << std::setprecision(17);
  for (int j = 0; j < inst.num_jobs(); ++j) {
    for (int i = 0; i < inst.num_machines(); ++i) {
      if (i) os << ' ';
      const double q = inst.q(i, j);
      // A subnormal's 17 significant digits are not its exact value, and
      // the reader rejects an inexact subnormal (strtod's ERANGE); its hex
      // float is exact.
      if (std::fpclassify(q) == FP_SUBNORMAL) {
        os << std::hexfloat << q << std::defaultfloat;
      } else {
        os << q;
      }
    }
    os << '\n';
  }
  os << inst.dag().num_edges() << '\n';
  for (int u = 0; u < inst.num_jobs(); ++u) {
    for (const int v : inst.dag().succs(u)) {
      os << u << ' ' << v << '\n';
    }
  }
}

Instance read_instance(std::string_view text, const ReadLimits& limits) {
  Reader in(text);
  if (in.token("magic") != kMagic) parse_fail("not an suu-instance stream");
  if (in.token("version") != kVersion) parse_fail("unsupported version");
  const long n = in.next<long>("integer", "job count");
  const long m = in.next<long>("integer", "machine count");
  if (n < 1 || n > limits.max_jobs) {
    parse_fail("job count " + std::to_string(n) + " outside [1, " +
               std::to_string(limits.max_jobs) + "]");
  }
  if (m < 1 || m > limits.max_machines) {
    parse_fail("machine count " + std::to_string(m) + " outside [1, " +
               std::to_string(limits.max_machines) + "]");
  }
  // Guard the n*m allocation before it happens: both factors are bounded
  // above, so the product cannot overflow long on 64-bit.
  if (n > limits.max_cells / m) {
    parse_fail("probability matrix " + std::to_string(n) + "x" +
               std::to_string(m) + " exceeds the " +
               std::to_string(limits.max_cells) + "-cell limit");
  }
  std::vector<double> q(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(m));
  for (std::size_t idx = 0; idx < q.size(); ++idx) {
    const double v = in.next<double>("number", "failure probability");
    if (!(v >= 0.0 && v <= 1.0)) {  // NaN fails both comparisons
      const long job = static_cast<long>(idx) / m;
      const long machine = static_cast<long>(idx) % m;
      std::ostringstream os;
      os << "q(" << machine << "," << job << ") = " << v
         << " is not a probability in [0,1]";
      parse_fail(os.str());
    }
    q[idx] = v;
  }
  const long edges = in.next<long>("integer", "edge count");
  if (edges < 0 || edges > limits.max_edges) {
    parse_fail("edge count " + std::to_string(edges) + " outside [0, " +
               std::to_string(limits.max_edges) + "]");
  }
  Dag dag(static_cast<int>(n));
  for (long e = 0; e < edges; ++e) {
    const long u = in.next<long>("integer", "edge source");
    const long v = in.next<long>("integer", "edge target");
    if (u < 0 || u >= n || v < 0 || v >= n) {
      parse_fail("edge " + std::to_string(u) + "->" + std::to_string(v) +
                 " references a job outside [0, " + std::to_string(n) + ")");
    }
    if (u == v) parse_fail("self-loop edge on job " + std::to_string(u));
    try {
      dag.add_edge(static_cast<int>(u), static_cast<int>(v));
    } catch (const util::CheckError&) {
      parse_fail("duplicate edge " + std::to_string(u) + "->" +
                 std::to_string(v));
    }
  }
  try {
    dag.validate_acyclic();
  } catch (const util::CheckError&) {
    parse_fail("precedence edges contain a cycle");
  }
  try {
    return Instance(static_cast<int>(n), static_cast<int>(m), std::move(q),
                    std::move(dag));
  } catch (const ParseError&) {
    throw;
  } catch (const util::CheckError& err) {
    // Semantic validation the Instance constructor owns (e.g. a job with no
    // machine of q < 1), rephrased as input rejection.
    parse_fail(std::string("invalid instance: ") + err.what());
  }
}

Instance read_instance(std::istream& is, const ReadLimits& limits) {
  return read_instance(read_all(is), limits);
}

void save_instance(const std::string& path, const Instance& inst) {
  std::ofstream os(path);
  SUU_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_instance(os, inst);
  SUU_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Instance load_instance(const std::string& path) {
  std::ifstream is(path);
  SUU_CHECK_MSG(is.good(), "cannot open " << path);
  return read_instance(read_all(is));
}

}  // namespace suu::core
