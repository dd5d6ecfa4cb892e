// suu::serve fault injection — deterministic transport-level failures on
// command, so every client failover path is exercised by tests instead of
// assumed.
//
// A FaultSpec is parsed from a compact `key=value[,key=value...]` string
// (the `SUU_FAULT` environment variable or `suu_serve --fault=`); a
// FaultInjector applies it to one connection's reply stream. All triggers
// count deterministically — bytes and complete reply lines written on that
// connection — never wall-clock or thread timing, so a test that asks for
// "die after the second reply line" gets exactly that, every run.
//
// Grammar (any subset, comma-separated; unknown keys and malformed values
// are parse errors — a typo'd fault silently not firing would make a
// "passing" failover test meaningless):
//
//   delay_ms=D           sleep D ms before writing each reply line
//   close_after_bytes=N  hard-close the connection once N bytes have been
//                        written (the drop lands mid-line when N falls
//                        inside one)
//   truncate_line=K      write only the first half of reply line K, then
//                        close (mid-line truncation the peer can parse-fail
//                        on)
//   exit_after_lines=K   _exit(42) after K complete reply lines (daemon
//                        crash between replies)
//   exit_after_bytes=N   _exit(42) once N bytes have been written (daemon
//                        crash mid-line / mid-stream)
//
// The injector decides; the transport executes. The epoll EventLoop
// consults each connection's injector before writing a reply line and
// performs the delay/short write/close/_exit it is told to — see
// service/eventloop.hpp.
#pragma once

#include <string>

namespace suu::service {

/// One connection's worth of deterministic fault triggers. Default state
/// is "no faults" (active() == false); every field is independent.
struct FaultSpec {
  int delay_ms = 0;                    ///< per-reply write delay
  long long close_after_bytes = -1;    ///< -1 = never
  int truncate_line = -1;              ///< 1-based reply line; -1 = never
  int exit_after_lines = -1;           ///< 1-based count; -1 = never
  long long exit_after_bytes = -1;     ///< -1 = never

  bool active() const noexcept {
    return delay_ms > 0 || close_after_bytes >= 0 || truncate_line >= 1 ||
           exit_after_lines >= 1 || exit_after_bytes >= 0;
  }

  /// Parse the spec grammar above. Returns false (and fills *error) on
  /// unknown keys, missing '=', or out-of-range values; *out is
  /// unspecified on failure. The empty string parses to the no-fault spec.
  static bool parse(const std::string& text, FaultSpec* out,
                    std::string* error);
};

/// Per-connection fault state: counts bytes/lines written and tells the
/// transport what to do with each reply line. One injector per accepted
/// connection, so `close_after_bytes` et al. reset per peer (exit_* kill
/// the process, so their scope is moot).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec) : spec_(spec) {}

  /// What the transport must do with one reply line.
  struct Action {
    std::size_t write_bytes = 0;  ///< prefix of the line to actually write
    int delay_ms = 0;             ///< sleep before writing
    bool close_after = false;     ///< hard-close the connection afterwards
    bool exit_after = false;      ///< _exit(42) afterwards (crash sim)
  };

  /// Plan the next reply write. `line` is the full wire line including its
  /// trailing '\n'. Once a close fault has fired, subsequent calls return
  /// write_bytes == 0 / close_after == true (the connection is gone).
  Action next(const std::string& line);

 private:
  FaultSpec spec_;
  long long bytes_written_ = 0;
  int lines_written_ = 0;
  bool closed_ = false;
};

}  // namespace suu::service
