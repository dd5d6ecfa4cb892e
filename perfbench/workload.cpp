#include "workload.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/generators.hpp"
#include "core/io.hpp"
#include "service/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using suu::core::Instance;
using suu::core::MachineModel;
using suu::util::Rng;

// Id ranges: timed requests use small ids, set-up and probe requests live
// far above them so the two can never collide.
constexpr std::uint64_t kSetupIdBase = 1'000'000'000'000ULL;
constexpr std::uint64_t kProbeIdBase = 2'000'000'000'000ULL;
// Seed of the warm-up instances (the same for every workload seed).
constexpr std::uint64_t kWarmSeed = 0x3a17u;
// Fixed estimate seed: replies are deterministic for a given instance.
constexpr int kEstimateSeed = 7;
// Chains use the q model of the LP2 benches and tests, on which the LP2
// revised->tableau fallbacks occur from 32 chains up. Independent jobs and
// forests use the volunteer-computing classes() model: with U[0.3, 0.9] a
// forest's LP2 reports "unbounded" on roughly one instance in a few hundred,
// and no benchmark operation may fail.
const MachineModel kChainModel = MachineModel::uniform(0.3, 0.9);

std::string instance_text(const Instance& inst) {
  std::ostringstream os;
  suu::core::write_instance(os, inst);
  return os.str();
}

std::string envelope(std::uint64_t id, const char* method,
                     const std::string& params) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"method\":\"";
  out += method;
  out += "\"";
  if (!params.empty()) out += ",\"params\":" + params;
  out += '}';
  return out;
}

std::string inline_params(const Instance& inst) {
  std::string out = "{\"instance\":";
  suu::service::json_append_quoted(out, instance_text(inst));
  return out;
}

/// `params_head` is inline_params(inst), passed in so callers that send one
/// instance many times serialize it once.
Request solve_inline(std::uint64_t id, const Instance& inst,
                     const std::string& params_head, bool lb, int cls) {
  Request r;
  r.id = id;
  r.method = "solve";
  std::string params = params_head;
  if (lb) params += ",\"lower_bound\":true";
  params += '}';
  r.line = envelope(id, "solve", params);
  r.size_class = cls;
  r.n = inst.num_jobs();
  r.m = inst.num_machines();
  r.expect_lower_bound = lb;
  return r;
}

Request solve_handle(std::uint64_t id, std::uint64_t handle,
                     const Instance& inst, int cls) {
  Request r;
  r.id = id;
  r.method = "solve";
  r.line = envelope(id, "solve",
                    "{\"handle\":" + std::to_string(handle) + "}");
  r.size_class = cls;
  r.n = inst.num_jobs();
  r.m = inst.num_machines();
  return r;
}

Request estimate_handle(std::uint64_t id, std::uint64_t handle,
                        const Instance& inst, int reps, int cls) {
  Request r;
  r.id = id;
  r.method = "estimate";
  r.line = envelope(id, "estimate",
                    "{\"handle\":" + std::to_string(handle) +
                        ",\"replications\":" + std::to_string(reps) +
                        ",\"seed\":" + std::to_string(kEstimateSeed) + "}");
  r.size_class = cls;
  r.n = inst.num_jobs();
  r.m = inst.num_machines();
  r.expect_mean = true;
  return r;
}

Request estimate_inline(std::uint64_t id, const Instance& inst, int reps,
                        bool lb, int cls) {
  Request r;
  r.id = id;
  r.method = "estimate";
  r.line = envelope(id, "estimate",
                    inline_params(inst) + ",\"replications\":" +
                        std::to_string(reps) + ",\"seed\":" +
                        std::to_string(kEstimateSeed) +
                        (lb ? ",\"lower_bound\":true}" : "}"));
  r.size_class = cls;
  r.n = inst.num_jobs();
  r.m = inst.num_machines();
  r.expect_mean = true;
  r.expect_lower_bound = lb;
  return r;
}

Request open_request(std::uint64_t id, const Instance& inst) {
  Request r;
  r.id = id;
  r.method = "open_instance";
  r.line = envelope(id, "open_instance", inline_params(inst) + "}");
  r.n = inst.num_jobs();
  r.m = inst.num_machines();
  return r;
}

Request list_solvers(std::uint64_t id, int cls) {
  Request r;
  r.id = id;
  r.method = "list_solvers";
  r.line = envelope(id, "list_solvers", "");
  r.size_class = cls;
  return r;
}

/// A 2-cell q delta: distinct cells, values in [0.05, 0.95] (every job
/// keeps a capable machine, so the delta is always valid).
suu::core::InstanceDelta q_delta(const Instance& inst, Rng rng) {
  const auto cells = static_cast<std::uint64_t>(inst.num_jobs()) *
                     static_cast<std::uint64_t>(inst.num_machines());
  suu::core::InstanceDelta d;
  const auto a = static_cast<std::int64_t>(rng.uniform_below(cells));
  auto b = static_cast<std::int64_t>(rng.uniform_below(cells - 1));
  if (b >= a) ++b;
  d.q.emplace_back(std::min(a, b), rng.uniform_real(0.05, 0.95));
  d.q.emplace_back(std::max(a, b), rng.uniform_real(0.05, 0.95));
  return d;
}

Request update_request(std::uint64_t id, std::uint64_t handle,
                       const Instance& inst,
                       const suu::core::InstanceDelta& d, int cls) {
  std::string params = "{\"handle\":" + std::to_string(handle) + ",\"q\":{";
  bool first = true;
  for (const auto& [cell, v] : d.q) {
    if (!first) params += ',';
    first = false;
    params += "\"" + std::to_string(cell) + "\":" +
              suu::service::json_number(v);
  }
  params += "}}";
  Request r;
  r.id = id;
  r.method = "update_instance";
  r.line = envelope(id, "update_instance", params);
  r.size_class = cls;
  r.n = inst.num_jobs();
  r.m = inst.num_machines();
  return r;
}

// ------------------------------------------------------------ shared stream

/// A solve workload: one global stratified stream of distinct inline
/// instances, each solved with its lower bound.
class SolveWorkload : public Workload {
 public:
  explicit SolveWorkload(std::uint64_t seed) : Workload(seed) {}

  std::vector<Request> warmup(int conn) const override {
    // One instance of each warm-up class, from a fixed stream: set-up does
    // the same work for every seed, and no fingerprint is shared with the
    // window, so the timed stream still starts on a cold cache.
    std::vector<Request> out;
    const std::uint64_t base =
        kSetupIdBase + static_cast<std::uint64_t>(conn) * 1000;
    for (std::size_t j = 0; j < warm_classes_.size(); ++j) {
      const Rng rng =
          Rng(kWarmSeed).child(static_cast<std::uint64_t>(conn) * 16 + j);
      const Instance inst = instance(warm_classes_[j], rng);
      out.push_back(
          solve_inline(base + j, inst, inline_params(inst), true, -1));
    }
    return out;
  }

  Request timed(int /*conn*/, std::uint64_t k) const override {
    const int cls = class_at(k);
    const Instance inst = instance(cls, instance_rng(k));
    return solve_inline(k, inst, inline_params(inst), true, cls);
  }

  std::vector<Request> probe() const override {
    // Estimate the quality set's instances (their lower bounds come from
    // the timed replies themselves).
    std::vector<Request> out;
    for (std::uint64_t k = 0; k < kQualityBlocks * block(); ++k) {
      const int cls = class_at(k);
      const int reps = probe_reps_[static_cast<std::size_t>(cls)];
      if (reps > 0) {
        out.push_back(estimate_inline(kProbeIdBase + k,
                                      instance(cls, instance_rng(k)), reps,
                                      false, cls));
      }
    }
    return out;
  }

  std::vector<ReplayInput> replay_inputs() const override {
    std::vector<ReplayInput> out;
    // The whole first block: every class, in its stratified proportions.
    for (std::uint64_t k = 0; k < block(); ++k) {
      ReplayInput in;
      in.instance = std::make_shared<const Instance>(
          instance(class_at(k), instance_rng(k)));
      out.push_back(std::move(in));
    }
    return out;
  }

 protected:
  /// An instance of class `cls` drawn from `rng`.
  virtual Instance instance(int cls, Rng rng) const = 0;

  /// The generator of the distinct instance at stream position k.
  Rng instance_rng(std::uint64_t k) const {
    return Rng(seed_).child(0x1257u).child(k);
  }

  std::uint64_t block() const {
    return static_cast<std::uint64_t>(block_size_);
  }

  /// Per class: replications of its probe estimate (0 = not probed).
  std::vector<int> probe_reps_;
  /// Classes of the per-connection warm-up solves.
  std::vector<int> warm_classes_;
};

class IndepSolve final : public SolveWorkload {
 public:
  explicit IndepSolve(std::uint64_t seed) : SolveWorkload(seed) {
    for (const int n : kN) {
      for (const int m : kM) {
        class_names_.push_back("n" + std::to_string(n) + "_m" +
                               std::to_string(m));
        // The probe simulates SUU-I-SEM, which re-solves LP1 every round
        // of every replication: keep it to the classes up to 8192 cells,
        // which still straddle the 4000-cell Frank-Wolfe cutover.
        probe_reps_.push_back(n * m <= 8192 ? 12 : 0);
      }
    }
    // Counts per block put p50 inside n64_m32 and p90 inside n4096_m32
    // rather than on a boundary between two latency modes.
    class_counts_ = {1, 2, 1, 1, 1, 1, 1, 2};
    warm_classes_ = {3, 4};  // n256_m32 and n1024_m8: Frank-Wolfe
  }

 private:
  static constexpr int kN[] = {64, 256, 1024, 4096};
  static constexpr int kM[] = {8, 32};

  Instance instance(int cls, Rng rng) const override {
    return suu::core::make_independent(kN[cls / 2], kM[cls % 2],
                                       MachineModel::classes(), rng);
  }
};

class DagSolve final : public SolveWorkload {
 public:
  explicit DagSolve(std::uint64_t seed) : SolveWorkload(seed) {
    for (const int nc : kChains) {
      class_names_.push_back("chains" + std::to_string(nc));
      probe_reps_.push_back(64);
    }
    for (const int n : kForest) {
      class_names_.push_back("forest" + std::to_string(n));
      probe_reps_.push_back(64);
    }
    // By latency: chains16 < chains32 < forest256. These counts put p50 at
    // the median of chains32, whose latency the LP2 tableau fallbacks set,
    // and p90 inside forest256, away from each class's steep tail.
    class_counts_ = {3, 4, 3};
    warm_classes_ = {1, 2};  // chains32, forest256
  }

 private:
  // Larger instances are left out (see README.md): 64 chains, where LP2
  // wrongly reports "unbounded" on about one instance in 1500; 128 chains
  // at 1-7 s per request; and larger forests at 1 s (512 jobs) to minutes
  // (1024 jobs) per request.
  static constexpr int kChains[] = {16, 32};
  static constexpr int kForest[] = {256};

  Instance instance(int cls, Rng rng) const override {
    if (cls < 2) {
      return suu::core::make_chains(kChains[cls], 2, 5, 4, kChainModel, rng);
    }
    return suu::core::make_out_forest(kForest[cls - 2], 8, 0.1, 3,
                                      MachineModel::classes(), rng);
  }
};

// ------------------------------------------------------- session workloads

/// A workload whose connections each own a few session handles and cycle
/// through their own request sequence.
class SessionWorkload : public Workload {
 public:
  explicit SessionWorkload(std::uint64_t seed) : Workload(seed) {
    shared_stream_ = false;
  }

  std::vector<Request> opens(int conn) const override {
    std::vector<Request> out;
    for (int h = 0; h < handles_per_conn(); ++h) {
      out.push_back(open_request(setup_id(conn, h), *base(conn, h)));
    }
    return out;
  }

  std::vector<Request> probe() const override {
    std::vector<Request> out;
    std::uint64_t id = kProbeIdBase;
    for (int c = 0; c < probe_conns_; ++c) {
      for (int h = 0; h < handles_per_conn(); ++h) {
        out.push_back(estimate_inline(id++, *base(c, h), reps(h), true, h));
      }
    }
    return out;
  }

 protected:
  virtual int handles_per_conn() const = 0;
  /// Replications of an estimate on handle slot h.
  virtual int reps(int h) const = 0;
  /// The instance connection `conn` opens in handle slot h.
  virtual std::shared_ptr<const Instance> make_base(int conn, int h) const = 0;

  /// The probe covers the instances of this many connections; indexes past
  /// connections() name instances no connection opens.
  int probe_conns_ = 4;

  std::shared_ptr<const Instance> base(int conn, int h) const {
    return slot(conn, h).instance;
  }
  /// inline_params(*base(conn, h)), serialized once.
  const std::string& base_params(int conn, int h) const {
    return slot(conn, h).params;
  }
  /// Handle number of slot h on connection `conn` (fresh daemon, opens in
  /// connection order).
  std::uint64_t handle(int conn, int h) const {
    return static_cast<std::uint64_t>(conn * handles_per_conn() + h + 1);
  }
  std::uint64_t timed_id(int conn, std::uint64_t k) const {
    return k * static_cast<std::uint64_t>(connections_) +
           static_cast<std::uint64_t>(conn);
  }
  static std::uint64_t setup_id(int conn, int j) {
    return kSetupIdBase + static_cast<std::uint64_t>(conn) * 1000 +
           static_cast<std::uint64_t>(j);
  }
  Rng base_rng(int conn, int h) const {
    return Rng(seed_).child(0xba5eu).child(
        static_cast<std::uint64_t>(conn * 16 + h));
  }

 private:
  struct Slot {
    std::shared_ptr<const Instance> instance;
    std::string params;
  };
  const Slot& slot(int conn, int h) const {
    const auto key = static_cast<std::size_t>(conn * handles_per_conn() + h);
    if (slots_.size() <= key) slots_.resize(key + 1);
    Slot& sl = slots_[key];
    if (!sl.instance) {
      sl.instance = make_base(conn, h);
      sl.params = inline_params(*sl.instance);
    }
    return sl;
  }

  // Lazily generated, never shared across threads: each client thread
  // builds its own Workload (Workload::make is cheap).
  mutable std::vector<Slot> slots_;
};

class SessionEstimate final : public SessionWorkload {
 public:
  explicit SessionEstimate(std::uint64_t seed)
      : SessionWorkload(seed) {
    class_names_ = {"indep256x8", "chains32", "forest256", "update"};
    block_size_ = kUpdateEvery;
  }

  std::vector<Request> warmup(int conn) const override {
    std::vector<Request> out;
    for (int h = 0; h < kHandles; ++h) {
      out.push_back(estimate_handle(setup_id(conn, 100 + h), handle(conn, h),
                                    *base(conn, h), reps(h), h));
    }
    return out;
  }

  Request timed(int conn, std::uint64_t k) const override {
    const std::uint64_t id = timed_id(conn, k);
    const std::uint64_t period = k / kUpdateEvery;
    const std::uint64_t pos = k % kUpdateEvery;
    if (pos == kUpdateEvery - 1) {
      const int h = static_cast<int>(period % kHandles);
      // Each update's re-prepared child stays pinned in the daemon's cache
      // until its handle closes, so memory grows with every update. A fixed
      // update budget keeps server_peak_rss_mb independent of throughput;
      // past it, the slot estimates the handle instead.
      if (period < kUpdatePeriods) {
        return update_request(id, handle(conn, h), *base(conn, h),
                              delta(conn, k, *base(conn, h)), kUpdateClass);
      }
      return estimate_handle(id, handle(conn, h), *base(conn, h), reps(h), h);
    }
    // Right after an update, estimate the changed handle (a re-prepare);
    // otherwise follow kCycle. Chains estimates (the fastest) fill over half
    // of each period, so p50 falls inside the chains mode and p90 inside
    // the slower independent/forest mode, not on the edge between them.
    static constexpr int kCycle[kUpdateEvery - 1] = {0, 1, 0, 1, 2, 1, 1};
    const int h = pos == 0 && period > 0 && period <= kUpdatePeriods
                      ? static_cast<int>((period - 1) % kHandles)
                      : kCycle[pos];
    return estimate_handle(id, handle(conn, h), *base(conn, h), reps(h), h);
  }

  std::vector<ReplayInput> replay_inputs() const override {
    std::vector<ReplayInput> out;
    for (int h = 0; h < kHandles; ++h) {
      ReplayInput in;
      in.instance = base(0, h);
      in.replications = reps(h);
      out.push_back(std::move(in));
    }
    // Every delta connection 0 applies.
    for (std::uint64_t p = 0; p < kUpdatePeriods; ++p) {
      const int h = static_cast<int>(p % kHandles);
      const std::uint64_t k = p * kUpdateEvery + kUpdateEvery - 1;
      out[static_cast<std::size_t>(h)].deltas.push_back(
          delta(0, k, *base(0, h)));
    }
    return out;
  }

 private:
  static constexpr int kHandles = 3;
  static constexpr std::uint64_t kUpdateEvery = 8;
  static constexpr int kUpdateClass = 3;
  // Periods (per connection) that carry an update: 5 per handle. Even the
  // slowest runs seen complete 3x as many periods.
  static constexpr std::uint64_t kUpdatePeriods = 15;

  int handles_per_conn() const override { return kHandles; }
  int reps(int h) const override {
    static constexpr int kReps[kHandles] = {24, 400, 100};
    return kReps[h];
  }
  std::shared_ptr<const Instance> make_base(int conn, int h) const override {
    Rng rng = base_rng(conn, h);
    switch (h) {
      case 0:
        return std::make_shared<const Instance>(suu::core::make_independent(
            256, 8, MachineModel::classes(), rng));
      case 1:
        return std::make_shared<const Instance>(
            suu::core::make_chains(32, 2, 5, 4, kChainModel, rng));
      default:
        return std::make_shared<const Instance>(suu::core::make_out_forest(
            256, 8, 0.1, 3, MachineModel::classes(), rng));
    }
  }
  /// The q delta of update request k on connection `conn`. Deltas are
  /// drawn against the base shape only (n, m), so they stay valid however
  /// many earlier deltas the handle has absorbed.
  suu::core::InstanceDelta delta(int conn, std::uint64_t k,
                                 const Instance& inst) const {
    return q_delta(inst, Rng(seed_).child(0xde17au).child(
                             static_cast<std::uint64_t>(conn)).child(k));
  }
};

class WireSmall final : public SessionWorkload {
 public:
  explicit WireSmall(std::uint64_t seed) : SessionWorkload(seed) {
    class_names_ = {"solve_handle_indep", "solve_inline_indep",
                    "list_solvers",       "estimate_handle_chains",
                    "solve_handle_chains", "solve_inline_chains"};
    // One 16-replication estimate per period of kPeriod requests. Its cost
    // depends on the seed's chains instance (up to 2.6x between seeds), and
    // the request pipelined behind it waits for its reply; together they
    // stay under 5% of the requests, so p50 and p90 both fall inside the
    // cheap cache-hit/list_solvers mode.
    block_size_ = kPeriod;
    // 2 connections x 2 in flight: no more requests in flight than the
    // daemon has workers, so latency measures the request path rather than
    // the host scheduler juggling more runnable threads than cores.
    connections_ = 2;
    window_ = 2;
    // Tiny instances: probe many more than the connections open, so the
    // quality geomeans average over enough instances to be steady.
    probe_conns_ = 16;
  }

  std::vector<Request> warmup(int conn) const override {
    // One of each request kind: prepares both handles' solvers, so every
    // timed solve (handle or inline: same fingerprint) is a cache hit.
    std::vector<Request> out;
    for (int kind = 0; kind < static_cast<int>(class_names_.size()); ++kind) {
      out.push_back(make(conn, kind, setup_id(conn, 100 + kind)));
    }
    return out;
  }

  Request timed(int conn, std::uint64_t k) const override {
    return make(conn, kind_at(k), timed_id(conn, k));
  }

  std::vector<ReplayInput> replay_inputs() const override {
    std::vector<ReplayInput> out;
    for (int h = 0; h < kHandles; ++h) {
      ReplayInput in;
      in.instance = base(0, h);
      // Only the chains handle is estimated.
      in.replications = h == 0 ? 0 : reps(h);
      out.push_back(std::move(in));
    }
    return out;
  }

 private:
  static constexpr int kHandles = 2;
  static constexpr int kPeriod = 48;
  static constexpr int kEstimateKind = 3;

  int handles_per_conn() const override { return kHandles; }
  int reps(int /*h*/) const override { return 16; }
  /// Kind of request k of a connection: the estimate closes each period;
  /// the other positions cycle through the five cheap kinds.
  static int kind_at(std::uint64_t k) {
    static constexpr int kCheap[5] = {0, 1, 2, 4, 5};
    const auto pos = static_cast<int>(k % kPeriod);
    return pos == kPeriod - 1 ? kEstimateKind : kCheap[pos % 5];
  }
  std::shared_ptr<const Instance> make_base(int conn, int h) const override {
    Rng rng = base_rng(conn, h);
    if (h == 0) {
      return std::make_shared<const Instance>(suu::core::make_independent(
          24, 6, MachineModel::uniform(0.3, 0.95), rng));
    }
    return std::make_shared<const Instance>(suu::core::make_chains(
        6, 3, 5, 6, MachineModel::uniform(0.3, 0.9), rng));
  }

  Request make(int conn, int kind, std::uint64_t id) const {
    switch (kind) {
      case 0:
        return solve_handle(id, handle(conn, 0), *base(conn, 0), kind);
      case 1:
        return solve_inline(id, *base(conn, 0), base_params(conn, 0), false,
                            kind);
      case 2:
        return list_solvers(id, kind);
      case 3:
        return estimate_handle(id, handle(conn, 1), *base(conn, 1), reps(1),
                               kind);
      case 4:
        return solve_handle(id, handle(conn, 1), *base(conn, 1), kind);
      default:
        return solve_inline(id, *base(conn, 1), base_params(conn, 1), false,
                            kind);
    }
  }
};

}  // namespace

std::string with_trace(const Request& r) {
  std::string out = r.line;
  out.pop_back();  // the envelope's closing brace
  out += ",\"trace\":\"t" + std::to_string(r.id) + "\"}";
  return out;
}

std::vector<std::string> Workload::names() {
  return {"indep_solve", "dag_solve", "session_estimate", "wire_small"};
}

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed) {
  std::unique_ptr<Workload> w;
  if (name == "indep_solve") w = std::make_unique<IndepSolve>(seed);
  if (name == "dag_solve") w = std::make_unique<DagSolve>(seed);
  if (name == "session_estimate") w = std::make_unique<SessionEstimate>(seed);
  if (name == "wire_small") w = std::make_unique<WireSmall>(seed);
  if (w && w->shared_stream_) {
    w->block_size_ = 0;
    for (const int c : w->class_counts_) w->block_size_ += c;
  }
  return w;
}

std::vector<Request> Workload::opens(int /*conn*/) const { return {}; }

int Workload::class_at(std::uint64_t k) const {
  const auto bs = static_cast<std::uint64_t>(block_size_);
  std::vector<int> perm;
  for (std::size_t c = 0; c < class_counts_.size(); ++c) {
    perm.insert(perm.end(), static_cast<std::size_t>(class_counts_[c]),
                static_cast<int>(c));
  }
  Rng rng = Rng(seed_).child(0xb10cu).child(k / bs);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_below(i)]);
  }
  return perm[static_cast<std::size_t>(k % bs)];
}

std::vector<std::uint64_t> Workload::representatives() const {
  std::vector<std::uint64_t> out;
  std::vector<char> seen(class_names_.size(), 0);
  for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(block_size_); ++k) {
    char& s = seen[static_cast<std::size_t>(class_at(k))];
    if (s == 0) out.push_back(k);
    s = 1;
  }
  return out;
}

bool Workload::in_quality_set(std::uint64_t id) const {
  const auto per_block = static_cast<std::uint64_t>(block_size_);
  if (shared_stream_) return id < kQualityBlocks * per_block;
  return id / static_cast<std::uint64_t>(connections_) <
         kQualityPeriods * per_block;
}

std::uint64_t Workload::quality_set_size() const {
  const auto per_block = static_cast<std::uint64_t>(block_size_);
  if (shared_stream_) return kQualityBlocks * per_block;
  return kQualityPeriods * per_block *
         static_cast<std::uint64_t>(connections_);
}

std::vector<Request> Workload::oracle_sample() const {
  std::vector<Request> out;
  if (shared_stream_) {
    for (const std::uint64_t k : representatives()) {
      out.push_back(timed(0, k));
    }
    return out;
  }
  out = opens(0);
  for (std::uint64_t k = 0; k < 2 * static_cast<std::uint64_t>(block_size_);
       ++k) {
    out.push_back(timed(0, k));
  }
  return out;
}

}  // namespace perfbench
