// Seeded request generators for the repo benchmark's four workloads.
//
// A Workload turns (name, seed) into wire request lines. The daemon only
// ever sees these lines; everything is a pure function of the seed, so the
// same seed yields byte-identical lines and the oracle can regenerate any
// request after the timed window.
//
//   indep_solve       inline solve + lower_bound on pairwise-distinct
//                     make_independent(n, m, classes()) instances
//   dag_solve         inline solve + lower_bound on distinct
//                     make_chains(nc, 2, 5, 4) / make_out_forest(n, 8, 0.1, 3)
//   session_estimate  estimates through open handles, with a 2-cell q
//                     update_instance every 8th request of each
//                     connection's first 15 periods
//   wire_small        tiny cache-hit solves (handle and inline),
//                     list_solvers and small estimates, pipelined
//
// Size classes are stratified: the shared request stream is cut into
// blocks, each holding a fixed count of every class, shuffled by the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/instance.hpp"

namespace perfbench {

/// One request line plus what the reply oracle checks against it.
struct Request {
  std::uint64_t id = 0;
  std::string method;
  std::string line;     ///< one JSON line, no trailing newline
  int size_class = -1;  ///< index into Workload::class_names(); -1 = none
  int n = -1;           ///< expected result.n (-1: not checked)
  int m = -1;           ///< expected result.m (-1: not checked)
  bool expect_mean = false;
  bool expect_lower_bound = false;
};

/// The same line with a client trace id in its envelope ("trace":"t<id>").
/// Responses never echo it, so reply bytes are unchanged.
std::string with_trace(const Request& r);

/// One instance the traced in-process replay pushes through the layers.
struct ReplayInput {
  std::shared_ptr<const suu::core::Instance> instance;
  /// > 0 when the workload estimates this instance with this many
  /// replications (the replay then simulates it).
  int replications = 0;
  /// q deltas the workload applies to this instance (apply_delta replay).
  std::vector<suu::core::InstanceDelta> deltas;
};

class Workload {
 public:
  static std::vector<std::string> names();
  /// nullptr for an unknown name.
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed);
  virtual ~Workload() = default;

  /// Closed-loop client connections, each a TCP connection of its own.
  int connections() const noexcept { return connections_; }
  /// Requests a connection keeps in flight (1 = strict request/reply).
  int window() const noexcept { return window_; }
  /// True when all connections draw from one global request sequence
  /// (timed(0, k) is request k); false when each connection owns its own
  /// sequence and session handles.
  bool shared_stream() const noexcept { return shared_stream_; }
  const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }
  /// Length of one stratified block (shared stream) or of one period of a
  /// connection's request cycle.
  int block_size() const noexcept { return block_size_; }

  /// open_instance lines of connection `conn`. Connections open in order
  /// on a fresh daemon, so handle numbers are deterministic.
  virtual std::vector<Request> opens(int conn) const;
  /// Warm-up requests of connection `conn`, sent before the window.
  virtual std::vector<Request> warmup(int conn) const = 0;
  /// Timed request k of connection `conn` (conn is ignored when
  /// shared_stream()).
  virtual Request timed(int conn, std::uint64_t k) const = 0;
  /// Quality probe: estimate requests on a fixed set of this workload's
  /// instances, sent after the window. On the solve workloads they estimate
  /// the quality set's instances; on the session workloads they ask for the
  /// lower bound of every opened instance.
  virtual std::vector<Request> probe() const = 0;
  /// Inputs of the traced in-process layer replay: the first block of the
  /// shared stream, or connection 0's handles.
  virtual std::vector<ReplayInput> replay_inputs() const = 0;

  /// True for the timed requests whose replies feed the quality metrics:
  /// the first kQualityBlocks blocks of the shared stream, or the first
  /// kQualityPeriods periods of every connection. They are sent first, so
  /// every run completes them; their replies are deterministic for a seed.
  bool in_quality_set(std::uint64_t id) const;
  std::uint64_t quality_set_size() const;
  static constexpr std::uint64_t kQualityBlocks = 3;
  static constexpr std::uint64_t kQualityPeriods = 2;

  /// The requests the oracle re-runs in-process, in order: the first
  /// request of each class in the shared stream, or connection 0's opens
  /// plus its first two periods (replies are compared for timed ids only).
  std::vector<Request> oracle_sample() const;

 protected:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  /// Class of position k in the stratified shared stream.
  int class_at(std::uint64_t k) const;
  /// Positions of the first request of each class in the first block of
  /// the shared stream, ascending.
  std::vector<std::uint64_t> representatives() const;

  std::uint64_t seed_ = 0;
  int connections_ = 4;
  int window_ = 1;
  bool shared_stream_ = true;
  std::vector<std::string> class_names_;
  std::vector<int> class_counts_;  ///< per block, per class
  int block_size_ = 1;
};

}  // namespace perfbench
