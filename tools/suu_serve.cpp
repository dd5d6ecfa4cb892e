// suu_serve — the solver service daemon.
//
// Exposes the full solver registry over the line-delimited JSON protocol
// (see docs/wire-protocol.md). Two transports:
//
//   stdio (default)  one client on stdin/stdout; a shutdown request stops
//                    admission, and the process exits once stdin closes
//                    (the blocking read cannot be interrupted mid-line):
//                      echo '{"id":1,"method":"list_solvers"}' | suu_serve
//   tcp              loopback listener, one connection per client:
//                      suu_serve --mode=tcp --port=7071
//                    --port=0 (default) picks an ephemeral port; the bound
//                    port is announced on stdout as "listening <port>" so
//                    scripts can scrape it.
//
// Tuning: --workers=N (request concurrency, 0 = hardware), --queue=K
// (bounded admission; excess requests get an "overloaded" error),
// --cache-capacity=C (prepared-solver LRU entries), --max-reps=R (per
// request replication cap), --max-handles=H (open instance handles per
// engine; opening one more expires the least-recently-used session),
// --idle-timeout-ms=T (tcp only: abandon a connection whose peer stays
// silent for T ms; 0 = wait forever), --max-outbound-bytes=B (tcp only:
// disconnect a slow reader once B reply bytes are queued unwritten on its
// connection; the epoll loop's backpressure bound).
//
// Observability (docs/observability.md): --metrics-port=P (tcp only; exit
// 2 with --mode=stdio, whose embedders use the in-band `metrics` method)
// serves the Prometheus text exposition on loopback from the wire
// listener's event loop (0 picks an ephemeral port, announced as
// "metrics <port>" on stdout); --slow-log-ms=N dumps a span
// trace to stderr for any request at least that slow; --no-obs disables
// all metric/span recording at runtime; --version prints the build
// identity (also exported as the suu_build_info metric) and exits.
//
// Fault injection (tests/demos only): --fault=SPEC or the SUU_FAULT
// environment variable (flag wins) installs deterministic reply-path
// faults on every tcp connection — see service/fault.hpp for the
// `key=value,...` grammar. A malformed spec is a startup error (exit 2),
// never a silently inactive fault.
//
// Sessions and streams (docs/wire-protocol.md): open_instance parses an
// instance once and returns a handle; solve/estimate take {"handle": h}
// instead of inline instance bytes; estimate {"stream": true, "shards": K}
// answers with one seq-ordered envelope per shard plus a terminal "done"
// line.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "api/precompute_cache.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "service/engine.hpp"
#include "service/fault.hpp"
#include "service/transport.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace suu;
  const util::Args args(argc, argv);
  if (args.has("version")) {
    std::cout << "suu_serve " << obs::kVersion << " ("
              << obs::build_type() << ", obs=" << obs::obs_mode() << ")\n";
    return 0;
  }
  const std::string mode = args.get_string("mode", "stdio");
  if (mode != "stdio" && mode != "tcp") {
    std::cerr << "suu_serve: --mode must be stdio or tcp\n";
    return 2;
  }
  if (mode == "stdio" && args.has("metrics-port")) {
    std::cerr << "suu_serve: --metrics-port requires --mode=tcp (stdio "
                 "embedders use the in-band metrics method)\n";
    return 2;
  }

  // A client that disappears mid-reply must surface as a write error, not
  // a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  service::Engine::Config cfg;
  cfg.workers = static_cast<unsigned>(args.get_int("workers", 0));
  cfg.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 256));
  cfg.max_replications =
      static_cast<int>(args.get_int("max-reps", cfg.max_replications));
  cfg.max_open_handles = static_cast<std::size_t>(args.get_int(
      "max-handles", static_cast<std::int64_t>(cfg.max_open_handles)));
  cfg.idle_timeout_ms =
      static_cast<int>(args.get_int("idle-timeout-ms", 0));
  cfg.max_outbound_bytes = static_cast<std::size_t>(args.get_int(
      "max-outbound-bytes",
      static_cast<std::int64_t>(cfg.max_outbound_bytes)));
  cfg.slow_log_ms = static_cast<int>(args.get_int("slow-log-ms", 0));
  if (args.has("no-obs")) obs::set_enabled(false);
  api::PrecomputeCache::global().set_capacity(
      static_cast<std::size_t>(args.get_int("cache-capacity", 256)));

  service::FaultSpec fault;
  {
    std::string spec = args.get_string("fault", "");
    if (spec.empty()) {
      if (const char* env = std::getenv("SUU_FAULT")) spec = env;
    }
    std::string err;
    if (!service::FaultSpec::parse(spec, &fault, &err)) {
      std::cerr << "suu_serve: bad fault spec: " << err << "\n";
      return 2;
    }
  }

  service::Engine engine(cfg);
  if (mode == "stdio") {
    service::serve_stream(engine, std::cin, std::cout);
    return 0;
  }
  service::TcpServer server(engine,
                            static_cast<std::uint16_t>(
                                args.get_int("port", 0)),
                            fault);
  // --metrics-port with no value (or 0) picks an ephemeral port; the bound
  // port is announced like the tcp listener's so scripts can scrape it.
  if (args.has("metrics-port")) {
    std::cout << "metrics "
              << server.listen_metrics(static_cast<std::uint16_t>(
                     args.get_int("metrics-port", 0)))
              << std::endl;
  }
  std::cout << "listening " << server.port() << std::endl;
  server.run();
  engine.drain();
  return 0;
}
