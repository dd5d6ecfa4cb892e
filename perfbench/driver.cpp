// perfbench_driver — the repo benchmark's one run of one workload.
//
//   perfbench_driver --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//
// Starts a real `suu_serve --mode=tcp --workers=4` daemon (set-up repeated
// at least kMinSetups times; setup_s is the median), drives the workload's
// generated request lines over TCP from closed-loop connections for
// --seconds, checks every reply, sends the quality probe, and re-runs a
// deterministic sample of the timed lines through an in-process
// service::Engine to compare reply bytes. With --trace=1 the same wire run carries client trace ids and the
// run adds the per-layer split: daemon phase spans (`trace`), daemon
// counter deltas (`stats`, `metrics`) and an in-process replay of the
// workload's inputs through each layer's public functions.
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0
// only when every reply and every oracle comparison passed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "replay.hpp"
#include "service/engine.hpp"
#include "stats.hpp"
#include "util/cli.hpp"
#include "wire.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

constexpr int kWorkers = 4;  // pinned suu_serve --workers (<= nproc)
// Set-ups per run: at least kMinSetups, then more while the run's set-ups
// have taken less than kSetupBudgetS, up to kMaxSetups. setup_s is their
// median, so a cheap set-up (a few ms) is timed often enough to be steady.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 41;
constexpr double kSetupBudgetS = 1.5;
constexpr int kTraceReads = 400;   // most recent requests whose spans are read
constexpr int kListSolversRtts = 300;
// Latency percentiles and throughput are taken per slice of the timed
// window (by completion time) and the median slice is reported, so a burst
// of host contention in a few slices does not move the result. Used when
// every slice holds at least kMinSliceSamples replies; otherwise pooled.
constexpr int kSlices = 10;
constexpr std::size_t kMinSliceSamples = 200;
constexpr double kForever = std::numeric_limits<double>::infinity();

struct Metric {
  std::string name;
  std::string unit;
};

/// Per-layer metric names in output order. Timings carry .p50/.p90.
std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> out;
  auto timing = [&out](const std::string& name, const std::string& unit) {
    out.push_back({name + ".p50", unit});
    out.push_back({name + ".p90", unit});
  };
  timing("service.rtt_list_solvers_us", "us");
  timing("service.handle_list_solvers_us", "us");
  timing("service.parse_request_us", "us");
  for (const char* phase :
       {"queue_wait", "parse", "prepare", "solve", "respond"}) {
    timing(std::string("service.") + phase + "_us", "us");
  }
  timing("core.read_instance_ms", "ms");
  timing("core.fingerprint_us", "us");
  timing("core.apply_delta_us", "us");
  timing("api.prepare_cold_ms", "ms");
  timing("api.lower_bound_ms", "ms");
  out.push_back({"api.cache_hit_frac", "ratio"});
  out.push_back({"api.coalesced", "count"});
  timing("lp.lp1_ms", "ms");
  out.push_back({"lp.lp1_simplex_frac", "ratio"});
  for (const char* c : {"lp.solves", "lp.pivots", "lp.phase1_pivots",
                        "lp.refactorizations", "lp.tableau_fallbacks"}) {
    out.push_back({c, "count"});
  }
  out.push_back({"lp.wire_pivots_per_req", "count/req"});
  timing("rounding.round_lp1_ms", "ms");
  timing("rounding.lp2_ms", "ms");
  timing("chains.decompose_forest_us", "us");
  timing("sim.execute_ms", "ms");
  timing("algos.decide_ms", "ms");
  timing("sim.engine_self_ms", "ms");
  out.push_back({"sim.steps_per_ms", "steps/ms"});
  out.push_back({"traced.req_per_s", "1/s"});
  out.push_back({"traced.latency_p50_ms", "ms"});
  out.push_back({"traced.latency_p90_ms", "ms"});
  return out;
}

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", "s"},
      {"req_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"ok_frac", "ratio"},
      {"makespan_geomean", "steps"},
      {"lower_bound_geomean", "steps"},
      {"server_peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Failure accounting shared by every stage of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const LoopResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) note(e);
  }
  void fail(const std::string& why) {
    ++failed;
    note(why);
  }
  void note(const std::string& why) {
    if (errors.size() < 12) errors.push_back(why);
  }
};

/// One Workload object per client thread: generators cache lazily and are
/// not shared across threads.
std::vector<std::unique_ptr<Workload>> per_thread(const std::string& name,
                                                  std::uint64_t seed, int n) {
  std::vector<std::unique_ptr<Workload>> out;
  for (int i = 0; i < n; ++i) out.push_back(Workload::make(name, seed));
  return out;
}

/// A NextRequest over fixed per-connection lists.
NextRequest from_lists(std::vector<std::vector<Request>>& lists) {
  auto pos = std::make_shared<std::vector<std::size_t>>(lists.size(), 0);
  return [&lists, pos](int c) -> std::optional<Request> {
    auto& list = lists[static_cast<std::size_t>(c)];
    std::size_t& p = (*pos)[static_cast<std::size_t>(c)];
    if (p >= list.size()) return std::nullopt;
    return list[p++];
  };
}

/// Spawn the daemon, open the session handles connection by connection,
/// and warm up. Returns nullptr (with the reason tallied) on failure.
std::unique_ptr<Daemon> set_up(const std::string& bin, const Workload& w,
                               Tally* tally) {
  auto d = std::make_unique<Daemon>(bin, kWorkers, w.connections());
  if (!d->ok()) {
    tally->fail("suu_serve did not start or refused a connection");
    return nullptr;
  }
  for (int c = 0; c < w.connections(); ++c) {
    const std::vector<Request> opens = w.opens(c);
    std::vector<std::string> lines;
    for (const Request& r : opens) lines.push_back(r.line);
    const std::vector<std::string> replies = round_trips(d->conn(c), lines);
    for (std::size_t i = 0; i < opens.size(); ++i) {
      ++tally->attempted;
      const Checked chk = check_reply(opens[i], replies[i]);
      if (!chk.ok) tally->fail(chk.error);
    }
  }
  std::vector<std::vector<Request>> warm;
  for (int c = 0; c < w.connections(); ++c) warm.push_back(w.warmup(c));
  tally->add(run_closed_loop(d->conns(), w.window(), from_lists(warm),
                             kForever, false));
  return d;
}

/// The deterministic oracle: re-run the sampled lines through an in-process
/// Engine and compare reply bytes with what the daemon sent.
void run_oracle(const Workload& w, const std::vector<Request>& sample,
                const std::map<std::uint64_t, std::string>& kept,
                Tally* tally) {
  suu::service::Engine engine(suu::service::Engine::Config{});
  std::vector<std::string> local(sample.size());
  if (w.shared_stream()) {
    // Independent requests: spread them over a few threads.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < sample.size(); i = next++) {
          local[i] = engine.handle(sample[i].line);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  } else {
    // One connection's sequence: session state makes order matter.
    for (std::size_t i = 0; i < sample.size(); ++i) {
      local[i] = engine.handle(sample[i].line);
    }
  }
  int compared = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto it = kept.find(sample[i].id);
    if (it == kept.end()) continue;
    ++compared;
    ++tally->attempted;
    if (it->second != local[i]) {
      tally->fail("oracle mismatch for request " +
                  std::to_string(sample[i].id) + ": daemon " +
                  it->second.substr(0, 160) + " vs in-process " +
                  local[i].substr(0, 160));
    }
  }
  if (compared == 0) tally->fail("oracle compared no replies");
  std::cout << "oracle: " << compared << " replies byte-compared\n";
}

/// Seconds of CPU time the hypervisor stole from this machine so far (the
/// `steal` column of /proc/stat, in USER_HZ ticks); 0 when unreadable. The
/// report prints the window's share, so a slow run on a contended host is
/// visible as such.
double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  const long hz = ::sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && hz > 0 ? v[7] / static_cast<double>(hz) : 0.0;
}

/// Exact latency order statistics of a loop, by class too (diagnostic).
void print_latencies(const Workload& w, const LoopResult& r,
                     const std::string& label) {
  std::vector<double> all;
  std::map<int, std::vector<double>> by_class;
  for (const Completed& c : r.done) {
    all.push_back(c.latency_ms);
    by_class[c.size_class].push_back(c.latency_ms);
  }
  std::cout << label << ": " << all.size() << " timed requests in "
            << fmt(r.wall_s) << " s, p50 " << fmt(percentile(all, 0.5))
            << " ms, p90 " << fmt(percentile(all, 0.9)) << " ms\n";
  std::vector<Completed> slow = r.done;
  std::sort(slow.begin(), slow.end(),
            [](const Completed& a, const Completed& b) {
              return a.latency_ms > b.latency_ms;
            });
  for (std::size_t i = 0; i < slow.size() && i < 3; ++i) {
    std::cout << "  slowest: id " << slow[i].id << " "
              << fmt(slow[i].latency_ms) << " ms\n";
  }
  for (const auto& [cls, v] : by_class) {
    const std::string name =
        cls >= 0 && cls < static_cast<int>(w.class_names().size())
            ? w.class_names()[static_cast<std::size_t>(cls)]
            : "other";
    std::cout << "  class " << name << ": n=" << v.size() << " p50 "
              << fmt(percentile(v, 0.5)) << " ms p90 "
              << fmt(percentile(v, 0.9)) << " ms\n";
  }
}

/// The timed window's latencies cut into kSlices equal-time slices by
/// completion time; empty when a slice holds fewer than kMinSliceSamples.
std::vector<std::vector<double>> latency_slices(const LoopResult& r) {
  if (!(r.wall_s > 0.0)) return {};
  std::vector<std::vector<double>> slices(kSlices);
  for (const Completed& c : r.done) {
    const int s = static_cast<int>(c.done_s / r.wall_s * kSlices);
    slices[static_cast<std::size_t>(std::clamp(s, 0, kSlices - 1))]
        .push_back(c.latency_ms);
  }
  for (const std::vector<double>& s : slices) {
    if (s.size() < kMinSliceSamples) return {};
  }
  return slices;
}

/// Latency percentile q of a timed window: the median of the slices'
/// exact percentiles, or the pooled percentile when there are no slices.
double window_percentile(const LoopResult& r,
                         const std::vector<std::vector<double>>& slices,
                         double q) {
  if (slices.empty()) {
    std::vector<double> all;
    for (const Completed& c : r.done) all.push_back(c.latency_ms);
    return percentile(all, q);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& s : slices) {
    per_slice.push_back(percentile(s, q));
  }
  return median(per_slice);
}

/// Completed requests per second of a timed window: the median slice's
/// rate, or the whole window's when there are no slices.
double window_rate(const LoopResult& r,
                   const std::vector<std::vector<double>>& slices) {
  if (!(r.wall_s > 0.0)) return 0.0;
  if (slices.empty()) return static_cast<double>(r.done.size()) / r.wall_s;
  std::vector<double> counts;
  for (const std::vector<double>& s : slices) {
    counts.push_back(static_cast<double>(s.size()));
  }
  return median(counts) / (r.wall_s / kSlices);
}

}  // namespace

int main(int argc, char** argv) {
  const suu::util::Args args(argc, argv);
  const std::string name = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string bin = PERFBENCH_SERVE_BIN;

  std::unique_ptr<Workload> w = Workload::make(name, seed);
  if (!w || !(seconds > 0.0)) {
    std::cerr << "usage: perfbench_driver --workload=<";
    for (const std::string& n : Workload::names()) std::cerr << n << "|";
    std::cerr << "> --seed=N --seconds=S --trace=0|1\n";
    return 2;
  }
  std::cout << "workload " << name << " seed " << seed << " seconds "
            << fmt(seconds) << " trace " << traced << " connections "
            << w->connections() << " window " << w->window() << " workers "
            << kWorkers << "\n";

  Tally tally;
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;

  // ---- set-up, repeated; the last daemon serves the run.
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  double setup_total_s = 0.0;
  for (int s = 0; s < kMaxSetups &&
                  (s < kMinSetups || setup_total_s < kSetupBudgetS);
       ++s) {
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon = set_up(bin, *w, &tally);
    if (!daemon) break;
    setup_times.push_back(seconds_between(t0, Clock::now()));
    setup_total_s += setup_times.back();
  }
  if (!daemon) {
    for (const std::string& e : tally.errors) {
      std::cerr << "error: " << e << "\n";
    }
    return 1;
  }
  metrics["setup_s"] = median(setup_times);
  std::cout << "set-up: median of " << setup_times.size() << " set-ups\n";

  std::map<std::string, double> stats0;
  std::map<std::string, double> lp0;
  if (traced) {
    stats0 = read_stats(daemon->conn(0));
    lp0 = read_lp_counters(daemon->conn(0));
  }

  // ---- timed window.
  const std::vector<Request> oracle = w->oracle_sample();
  std::vector<std::uint64_t> oracle_ids;
  for (const Request& r : oracle) oracle_ids.push_back(r.id);
  std::sort(oracle_ids.begin(), oracle_ids.end());

  auto gens = per_thread(name, seed, w->connections());
  std::atomic<std::uint64_t> shared_k{0};
  std::vector<std::uint64_t> conn_k(
      static_cast<std::size_t>(w->connections()), 0);
  const bool shared = w->shared_stream();
  const NextRequest next = [&](int c) -> std::optional<Request> {
    Workload& g = *gens[static_cast<std::size_t>(c)];
    if (shared) return g.timed(0, shared_k++);
    return g.timed(c, conn_k[static_cast<std::size_t>(c)]++);
  };
  const double steal0 = steal_seconds();
  const LoopResult run = run_closed_loop(
      daemon->conns(), w->window(), next, seconds, traced,
      [&](std::uint64_t id) {
        return std::binary_search(oracle_ids.begin(), oracle_ids.end(), id);
      });
  tally.add(run);
  print_latencies(*w, run, traced ? "traced window" : "window");
  std::cout << "cpu steal during the window: "
            << fmt(steal_seconds() - steal0) << " s\n";

  const std::vector<std::vector<double>> slices = latency_slices(run);
  std::cout << "slices: "
            << (slices.empty() ? "pooled" : "median of " +
                                                std::to_string(kSlices))
            << "\n";
  const double rps = window_rate(run, slices);
  metrics["req_per_s"] = rps;
  metrics["latency_p50_ms"] = window_percentile(run, slices, 0.5);
  metrics["latency_p90_ms"] = window_percentile(run, slices, 0.9);
  if (run.done.size() < 100) {
    std::cout << "warning: only " << run.done.size()
              << " timed requests; p90 has fewer than 10 samples beyond it\n";
  }

  // ---- traced: daemon-side phase spans and counter deltas.
  if (traced) {
    const std::map<std::string, double> stats1 = read_stats(daemon->conn(0));
    const std::map<std::string, double> lp1 = read_lp_counters(daemon->conn(0));
    auto delta = [](const std::map<std::string, double>& a,
                    const std::map<std::string, double>& b,
                    const std::string& key) {
      const auto ia = a.find(key);
      const auto ib = b.find(key);
      return (ib != b.end() ? ib->second : 0.0) -
             (ia != a.end() ? ia->second : 0.0);
    };
    const double hits = delta(stats0, stats1, "cache.hits");
    const double misses = delta(stats0, stats1, "cache.misses");
    layers["api.cache_hit_frac"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    layers["api.coalesced"] = delta(stats0, stats1, "engine.coalesced");
    layers["lp.wire_pivots_per_req"] =
        run.done.empty() ? 0.0
                         : delta(lp0, lp1, "suu_lp_pivots_total") /
                               static_cast<double>(run.done.size());

    // Spans of the most recent requests (the daemon's span ring holds the
    // last few thousand spans).
    std::vector<Completed> recent = run.done;
    std::sort(recent.begin(), recent.end(),
              [](const Completed& a, const Completed& b) {
                return a.done_s > b.done_s;
              });
    if (recent.size() > static_cast<std::size_t>(kTraceReads)) {
      recent.resize(static_cast<std::size_t>(kTraceReads));
    }
    std::map<std::string, std::vector<double>> phases;
    for (const Completed& c : recent) {
      for (const auto& [span, us] :
           read_trace(daemon->conn(0), "t" + std::to_string(c.id))) {
        if (span.rfind("request:", 0) != 0) phases[span].push_back(us);
      }
    }
    for (const auto& [phase, v] : phases) {
      layers["service." + phase + "_us.p50"] = percentile(v, 0.5);
      layers["service." + phase + "_us.p90"] = percentile(v, 0.9);
    }

    std::vector<double> rtt;
    const std::vector<std::string> ls(
        1, "{\"id\":1,\"method\":\"list_solvers\"}");
    for (int i = 0; i < kListSolversRtts; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::string reply = round_trips(daemon->conn(0), ls).front();
      rtt.push_back(seconds_between(t0, Clock::now()) * 1e6);
      if (reply.empty()) tally.fail("list_solvers round trip failed");
    }
    layers["service.rtt_list_solvers_us.p50"] = percentile(rtt, 0.5);
    layers["service.rtt_list_solvers_us.p90"] = percentile(rtt, 0.9);
    layers["traced.req_per_s"] = rps;
    layers["traced.latency_p50_ms"] = metrics["latency_p50_ms"];
    layers["traced.latency_p90_ms"] = metrics["latency_p90_ms"];
  }

  // ---- quality: the quality set's timed replies plus the probe.
  {
    const std::vector<Request> probe = w->probe();
    std::vector<std::vector<Request>> lists(
        static_cast<std::size_t>(w->connections()));
    for (std::size_t i = 0; i < probe.size(); ++i) {
      lists[i % lists.size()].push_back(probe[i]);
    }
    const Clock::time_point t0 = Clock::now();
    const LoopResult pr = run_closed_loop(daemon->conns(), 1,
                                          from_lists(lists), kForever, false);
    tally.add(pr);
    if (pr.done.size() != probe.size()) tally.fail("quality probe incomplete");
    std::vector<Completed> quality = pr.done;
    std::size_t timed_quality = 0;
    for (const Completed& c : run.done) {
      if (w->in_quality_set(c.id)) {
        quality.push_back(c);
        ++timed_quality;
      }
    }
    if (timed_quality != w->quality_set_size()) {
      tally.fail("only " + std::to_string(timed_quality) + " of " +
                 std::to_string(w->quality_set_size()) +
                 " quality-set requests completed; run longer");
    }
    std::vector<double> means;
    std::vector<double> bounds;
    for (const Completed& c : quality) {
      if (c.mean > 0.0) means.push_back(c.mean);
      if (c.lower_bound > 0.0) bounds.push_back(c.lower_bound);
    }
    metrics["makespan_geomean"] = geomean(means);
    metrics["lower_bound_geomean"] = geomean(bounds);
    std::cout << "quality: " << means.size() << " estimate means, "
              << bounds.size() << " lower bounds (probe "
              << fmt(seconds_between(t0, Clock::now())) << " s)\n";
  }

  metrics["server_peak_rss_mb"] = daemon->peak_rss_mb();
  daemon.reset();

  // ---- oracle: byte-compare a deterministic sample in-process.
  run_oracle(*w, oracle, run.kept, &tally);

  if (traced) {
    std::vector<std::string> lines;
    for (const Request& r : oracle) lines.push_back(r.line);
    for (const auto& [k, v] : replay_layers(*w, lines)) layers[k] = v;
  }

  metrics["ok_frac"] =
      tally.attempted > 0
          ? 1.0 - static_cast<double>(tally.failed) /
                      static_cast<double>(tally.attempted)
          : 0.0;
  std::cout << "failed_frac " << fmt(1.0 - metrics["ok_frac"]) << " ratio ("
            << tally.failed << " of " << tally.attempted << ")\n";
  for (const Metric& m : end_to_end_metrics()) {
    std::cout << m.name << " " << fmt(metrics[m.name]) << " " << m.unit
              << "\n";
  }
  for (const std::string& e : tally.errors) std::cout << "error: " << e << "\n";

  const bool correct = tally.failed == 0;
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(tally.attempted) +
                     ",\"failed\":" + std::to_string(tally.failed) +
                     ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const Metric& m, double v) {
    if (!first) json += ',';
    first = false;
    json += "\"" + m.name + "\":{\"value\":" + fmt(v) + ",\"unit\":\"" +
            m.unit + "\"}";
  };
  if (traced) {
    for (const Metric& m : per_layer_metrics()) {
      const auto it = layers.find(m.name);
      const double v = it != layers.end() ? it->second : 0.0;
      std::cout << m.name << " " << fmt(v) << " " << m.unit << "\n";
      emit(m, v);
    }
  } else {
    for (const Metric& m : end_to_end_metrics()) emit(m, metrics[m.name]);
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
