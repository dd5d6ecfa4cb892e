// suu::api — the unified solver entry point.
//
// Every schedule the repo implements (the paper's SUU-I/SUU-C/SUU-T
// pipeline, the exact DPs, the baselines) is reachable by name through one
// registry. A preparer runs the solver's deterministic per-instance work
// exactly once — LP1/LP2 solve + rounding, heavy-path decomposition, DP
// value iteration — and returns a sim::PolicyFactory whose policies share
// that precomputation across Monte-Carlo replications. The paper solvers
// also keep the relaxation optima they solved (LP1(J, 1/2) for suu-i-sem
// and suu-i-obl, LP2 on the chains for suu-c) on the PreparedSolver, so
// lower_bound_auto(inst, prepared, opt) reuses them instead of solving the
// same program twice per request.
//
// Naming scheme (see docs/architecture.md):
//   suu-i-sem / suu-i-obl   paper Section 3 (Thm 4 / Thm 3); "suu-i" is an
//                           alias for suu-i-sem, the headline algorithm
//   suu-c                   paper Section 4 (Thm 9), disjoint chains
//   suu-t                   paper Appendix B (Thm 12), directed forests
//   exact-dp / width-dp     ground-truth optima (subset / Malewicz width DP)
//   all-on-one, round-robin, best-machine, adaptive-greedy, greedy-lr
//                           baselines (algos/baselines.hpp)
//   auto                    structure dispatch on the instance's dag:
//                           empty -> suu-i-sem, chains -> suu-c,
//                           forest -> suu-t, general -> all-on-one (the
//                           trivial O(n)-approximation, the only schedule
//                           here that is valid for arbitrary precedence).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algos/lower_bounds.hpp"
#include "api/precompute_cache.hpp"
#include "core/instance.hpp"
#include "rounding/lp1.hpp"
#include "sim/engine.hpp"

namespace suu::api {

/// Knobs forwarded to the solver preparers. One struct for all solvers so
/// experiment grids can sweep a knob without knowing which solver reads it.
struct SolverOptions {
  /// LP1 solve options (suu-i*, the SUU-C long-job batches, lower bounds).
  rounding::Lp1Options lp1;
  /// Run the deterministic per-instance work (LP solves, rounding, DP)
  /// once at prepare() time and share it across replications. Off = every
  /// policy instance recomputes, as a from-scratch run would.
  bool share_precompute = true;
  /// Consult the process-wide api::PrecomputeCache (keyed by the instance
  /// fingerprint, solver name and these options) so grid cells that share
  /// an instance reuse one prepared solver instead of re-running the LP/DP
  /// precompute. Only takes effect together with share_precompute.
  bool reuse_cache = true;

  // SUU-C / SUU-T knobs (forwarded into algos::SuuCPolicy::Config):
  bool random_delays = true;      ///< Theorem 7 ablation switch
  bool grid_rounding = false;     ///< non-polynomial-t* trick
  double gamma_factor = 1.0;      ///< scales gamma = t*/log2(n+m)
  double fallback_factor = 64.0;  ///< superstep budget multiplier
};

/// A solver prepared for one instance: the resolved registry name, a
/// factory that mints fresh policies sharing the precomputed artifacts, and
/// the relaxation optima the preparer solved (null for solvers that solve
/// none, custom ones included).
struct PreparedSolver {
  std::string name;
  sim::PolicyFactory factory;
  std::shared_ptr<const algos::Relaxations> relaxations;
};

class SolverRegistry {
 public:
  using Preparer = std::function<sim::PolicyFactory(const core::Instance&,
                                                    const SolverOptions&)>;

  /// The process-wide registry, pre-populated with every builtin solver.
  /// Mutable so downstream code can register custom policies (see
  /// examples/mapreduce_pipeline.cpp).
  static SolverRegistry& global();

  /// Register a solver; throws util::CheckError on duplicate names and on
  /// the reserved name "auto". `cacheable` = false opts the solver out of
  /// the PrecomputeCache; required when the prepared factory keeps a
  /// pointer/reference to the Instance passed to prepare() (the cache can
  /// outlive it — it hands the factory back for any equal-content
  /// instance), rather than owning value/shared_ptr artifacts.
  void add(const std::string& name, Preparer prepare, std::string summary,
           bool cacheable = true);

  bool contains(const std::string& name) const;
  /// All registered names, sorted.
  std::vector<std::string> names() const;
  /// One-line description; throws util::CheckError for unknown names.
  const std::string& summary(const std::string& name) const;

  /// Resolve `name` ("auto" dispatches on dag structure) and prepare the
  /// solver for `inst`. Throws util::CheckError for unknown names.
  PreparedSolver prepare(const core::Instance& inst, const std::string& name,
                         const SolverOptions& opt = {}) const;

  /// Structure dispatch: the registry name of the paper algorithm matching
  /// inst.dag() (empty/chains/forest), or "all-on-one" for general dags.
  static std::string dispatch(const core::Instance& inst);

  /// The 64-bit key under which prepare(inst, name, opt) would memoize its
  /// factory: a hash of (instance fingerprint, resolved solver name, every
  /// option field a preparer can read). Shared by the PrecomputeCache and
  /// by service::Engine's single-flight table, so "identical request" means
  /// the same thing at both layers. `name` must already be resolved (not
  /// "auto" — see dispatch).
  static std::uint64_t prepare_key(const core::Instance& inst,
                                   const std::string& name,
                                   const SolverOptions& opt);

 private:
  /// The builtin preparers also return the relaxation optima they solved;
  /// add() wraps a custom Preparer into one that returns none.
  using PartsPreparer = std::function<PreparedParts(const core::Instance&,
                                                    const SolverOptions&)>;
  struct Entry {
    PartsPreparer prepare;
    std::string summary;
    bool cacheable = true;
  };
  /// add() for a preparer that reports relaxation optima.
  void add_entry(const std::string& name, PartsPreparer prepare,
                 std::string summary, bool cacheable = true);
  static void register_builtins(SolverRegistry& r);
  std::map<std::string, Entry> entries_;
};

/// Convenience: prepare `name` via the global registry.
PreparedSolver make_solver(const core::Instance& inst, const std::string& name,
                           const SolverOptions& opt = {});

/// Convenience: prepare the structure-dispatched paper algorithm.
PreparedSolver solve_auto(const core::Instance& inst,
                          const SolverOptions& opt = {});

/// Structure-dispatched lower bound on E[T_OPT] — the denominator of every
/// measured approximation ratio. Empty dags use Lemma 1; chain dags add the
/// Lemma 5 LP2/2 bound; forests evaluate LP2 on the heavy-path chain
/// decomposition (dropping cross-block edges only relaxes the program);
/// general dags fall back to Lemma 1, which never uses independence.
algos::LowerBound lower_bound_auto(const core::Instance& inst,
                                   const rounding::Lp1Options& opt = {});

/// The same bound for an instance that `prepared` was prepared for: every
/// program `prepared` already solved identically (same instance, job set,
/// L, options and chain list) is read from prepared.relaxations, and only
/// the rest is solved. Bitwise equal to lower_bound_auto(inst, opt); the
/// call to prefer when a solver is prepared anyway. For a suu-c solver on
/// chains only LP1 is solved; a forest's all-blocks LP2 differs from
/// suu-t's per-block programs and is always solved.
algos::LowerBound lower_bound_auto(const core::Instance& inst,
                                   const PreparedSolver& prepared,
                                   const rounding::Lp1Options& opt = {});

}  // namespace suu::api
