#include "replay.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "api/registry.hpp"
#include "chains/decomposition.hpp"
#include "core/delta.hpp"
#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

using suu::core::Instance;

/// Milliseconds `fn` takes.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now()) * 1e3;
}

/// Wraps a prepared policy and times its reset() and decide() calls, so
/// the engine's own share of sim::execute is execute minus this.
class TimedPolicy final : public suu::sim::Policy {
 public:
  explicit TimedPolicy(std::unique_ptr<suu::sim::Policy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void reset(const Instance& inst, suu::util::Rng rng) override {
    busy_ms_ += time_ms([&] { inner_->reset(inst, rng); });
  }
  suu::sched::Assignment decide(const suu::sim::ExecState& state) override {
    const Clock::time_point t0 = Clock::now();
    suu::sched::Assignment a = inner_->decide(state);
    busy_ms_ += seconds_between(t0, Clock::now()) * 1e3;
    return a;
  }
  double busy_ms() const noexcept { return busy_ms_; }

 private:
  std::unique_ptr<suu::sim::Policy> inner_;
  double busy_ms_ = 0.0;
};

/// The LP counters a solve bumps, read from the process-wide registry.
struct LpCounters {
  static constexpr const char* kNames[] = {
      "suu_lp_solves_total", "suu_lp_pivots_total",
      "suu_lp_phase1_pivots_total", "suu_lp_refactorizations_total",
      "suu_lp_tableau_fallbacks_total"};
  static constexpr const char* kMetric[] = {
      "lp.solves", "lp.pivots", "lp.phase1_pivots", "lp.refactorizations",
      "lp.tableau_fallbacks"};
  double v[5] = {};

  static LpCounters read() {
    LpCounters c;
    for (int i = 0; i < 5; ++i) {
      c.v[i] = static_cast<double>(
          suu::obs::Registry::global().counter(kNames[i]).value());
    }
    return c;
  }
};

struct Samples {
  std::map<std::string, std::vector<double>> timings;
  void add(const std::string& name, double v) { timings[name].push_back(v); }
};

}  // namespace

std::map<std::string, double> replay_layers(
    const Workload& w, const std::vector<std::string>& lines) {
  Samples s;
  std::map<std::string, double> out;

  // service: request-envelope parsing and the cheapest full request.
  for (const std::string& line : lines) {
    for (int rep = 0; rep < 3; ++rep) {
      s.add("service.parse_request_us",
            time_ms([&] { (void)suu::service::parse_request(line); }) * 1e3);
    }
  }
  {
    suu::service::Engine engine(suu::service::Engine::Config{});
    const std::string ls = "{\"id\":1,\"method\":\"list_solvers\"}";
    for (int rep = 0; rep < 300; ++rep) {
      s.add("service.handle_list_solvers_us",
            time_ms([&] { (void)engine.handle(ls); }) * 1e3);
    }
  }

  const suu::api::SolverRegistry& reg = suu::api::SolverRegistry::global();
  suu::api::SolverOptions cold;
  cold.reuse_cache = false;
  double lp[5] = {};
  int lp1_solves = 0;
  int lp1_simplex = 0;
  double sim_steps = 0.0;
  double sim_ms = 0.0;

  for (const ReplayInput& in : w.replay_inputs()) {
    const Instance& inst = *in.instance;

    // core: parse the wire payload, then build an Instance from parsed
    // data (the constructor computes the fingerprint; fingerprint() only
    // returns it).
    std::ostringstream os;
    suu::core::write_instance(os, inst);
    const std::string text = os.str();
    s.add("core.read_instance_ms", time_ms([&] {
            std::istringstream is(text);
            (void)suu::core::read_instance(is);
          }));
    std::vector<double> q;
    q.reserve(static_cast<std::size_t>(inst.num_jobs()) * inst.num_machines());
    for (int j = 0; j < inst.num_jobs(); ++j) {
      for (int i = 0; i < inst.num_machines(); ++i) q.push_back(inst.q(i, j));
    }
    s.add("core.fingerprint_us", time_ms([&] {
            (void)Instance(inst.num_jobs(), inst.num_machines(), q, inst.dag());
          }) * 1e3);
    {
      Instance cur = inst;
      for (const suu::core::InstanceDelta& d : in.deltas) {
        s.add("core.apply_delta_us", time_ms([&] {
                cur = suu::core::apply_delta(cur, d);
              }) * 1e3);
      }
    }

    // api: what one cold solve request with lower_bound runs.
    const LpCounters before = LpCounters::read();
    s.add("api.prepare_cold_ms",
          time_ms([&] { (void)reg.prepare(inst, "auto", cold); }));
    s.add("api.lower_bound_ms",
          time_ms([&] { (void)suu::api::lower_bound_auto(inst, cold.lp1); }));
    const LpCounters after = LpCounters::read();
    for (int i = 0; i < 5; ++i) lp[i] += after.v[i] - before.v[i];

    // lp + rounding: LP1(J, 1/2) with default options and its Lemma 2
    // rounding (the first SUU-I-SEM round and the Lemma 1 bound).
    std::vector<int> all(static_cast<std::size_t>(inst.num_jobs()));
    for (int j = 0; j < inst.num_jobs(); ++j) {
      all[static_cast<std::size_t>(j)] = j;
    }
    suu::rounding::Lp1Fractional frac;
    s.add("lp.lp1_ms", time_ms([&] {
            frac = suu::rounding::solve_lp1(inst, all, 0.5);
          }));
    ++lp1_solves;
    // The simplex reports its optimum as its own lower bound; Frank-Wolfe
    // certifies a strictly smaller one.
    if (frac.lower_bound == frac.t) ++lp1_simplex;
    s.add("rounding.round_lp1_ms", time_ms([&] {
            (void)suu::rounding::round_lp1(inst, all, 0.5, frac);
          }));

    // chains + LP2 on precedence instances: the chains as given, or the
    // heavy-path blocks of a forest (one LP2 per block, as SUU-T runs).
    if (!inst.is_independent()) {
      suu::chains::Decomposition dec;
      s.add("chains.decompose_forest_us", time_ms([&] {
              dec = suu::chains::decompose_forest(inst.dag());
            }) * 1e3);
      std::vector<std::vector<std::vector<int>>> blocks;
      if (inst.dag().is_chains()) {
        blocks.push_back(inst.dag().chains());
      } else {
        blocks = dec.blocks;
      }
      s.add("rounding.lp2_ms", time_ms([&] {
              for (const auto& chains : blocks) {
                (void)suu::rounding::solve_and_round_lp2(inst, chains);
              }
            }));
    }

    // sim + algos: the replications an estimate of this instance runs.
    if (in.replications > 0) {
      const suu::api::PreparedSolver ps = reg.prepare(inst, "auto");
      for (int r = 0; r < in.replications; ++r) {
        TimedPolicy policy(ps.factory());
        suu::sim::ExecConfig cfg;
        cfg.seed = static_cast<std::uint64_t>(r) + 1;
        suu::sim::ExecResult res;
        const double exec_ms =
            time_ms([&] { res = suu::sim::execute(inst, policy, cfg); });
        s.add("sim.execute_ms", exec_ms);
        s.add("algos.decide_ms", policy.busy_ms());
        s.add("sim.engine_self_ms", exec_ms - policy.busy_ms());
        sim_steps += static_cast<double>(res.makespan);
        sim_ms += exec_ms;
      }
    }
  }

  for (const auto& [name, v] : s.timings) {
    out[name + ".p50"] = percentile(v, 0.5);
    out[name + ".p90"] = percentile(v, 0.9);
  }
  for (int i = 0; i < 5; ++i) out[LpCounters::kMetric[i]] = lp[i];
  out["lp.lp1_simplex_frac"] =
      lp1_solves > 0 ? static_cast<double>(lp1_simplex) / lp1_solves : 0.0;
  out["sim.steps_per_ms"] = sim_ms > 0.0 ? sim_steps / sim_ms : 0.0;
  return out;
}

}  // namespace perfbench
