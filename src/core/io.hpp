// Plain-text serialization for SUU instances.
//
// Format (whitespace-separated tokens; a token that starts with '#'
// comments out the rest of its line):
//
//   suu-instance v1
//   <n> <m>
//   <n rows of m failure probabilities q_ij, row-major by job>
//   <edge count>
//   <edge count rows of "u v"> (u precedes v)
//
// Round-trips exactly at 17 significant digits. Whitespace is the C
// locale's (space, \t, \n, \v, \f, \r). Integers are decimal with an
// optional sign; probabilities take the std::strtod grammar (an optional
// sign, decimal or hex floats, inf, nan), and a result that under- or
// overflows is rejected. Bytes after the last edge are not read.
//
// read_instance is hardened against malformed and adversarial input (the
// suu::serve wire format feeds it untrusted bytes): dimension overflow,
// out-of-range or duplicate edges, cycle-inducing edge sets, and NaN or
// out-of-[0,1] probabilities all raise a typed ParseError — never an
// assert/abort, and never an unbounded allocation (see ReadLimits).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/instance.hpp"
#include "util/check.hpp"

namespace suu::core {

/// Raised by read_instance / load_instance on malformed input. Derives from
/// util::CheckError so legacy catch sites keep working, but carries a
/// parser-phrased message (what was wrong with the bytes, not which internal
/// invariant tripped).
class ParseError : public util::CheckError {
 public:
  explicit ParseError(const std::string& what) : util::CheckError(what) {}
};

/// Caps on what read_instance will accept before allocating. The defaults
/// admit every instance the experiments generate while bounding a hostile
/// header like "16777215 16777215" (which would otherwise try to allocate
/// ~2^48 doubles) to a cheap rejection.
struct ReadLimits {
  long max_jobs = 1L << 24;
  long max_machines = 1L << 24;
  long max_cells = 1L << 26;  ///< n * m
  long max_edges = 1L << 24;
};

void write_instance(std::ostream& os, const Instance& inst);
/// Parse one instance from `text` in a single pass (no per-token string,
/// numbers by std::from_chars).
Instance read_instance(std::string_view text, const ReadLimits& limits = {});
/// Read `is` to its end and parse the bytes with the overload above.
Instance read_instance(std::istream& is, const ReadLimits& limits = {});

void save_instance(const std::string& path, const Instance& inst);
Instance load_instance(const std::string& path);

}  // namespace suu::core
