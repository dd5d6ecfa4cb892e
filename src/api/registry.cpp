#include "api/registry.hpp"

#include <sstream>
#include <string_view>
#include <utility>

#include "algos/baselines.hpp"
#include "algos/exact_dp.hpp"
#include "algos/exact_width_dp.hpp"
#include "algos/suu_c.hpp"
#include "algos/suu_i.hpp"
#include "algos/suu_t.hpp"
#include "api/precompute_cache.hpp"
#include "chains/decomposition.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace suu::api {
namespace {

algos::SuuCPolicy::Config suu_c_config(const SolverOptions& opt) {
  algos::SuuCPolicy::Config cfg;
  cfg.lp1 = opt.lp1;
  cfg.random_delays = opt.random_delays;
  cfg.grid_rounding = opt.grid_rounding;
  cfg.gamma_factor = opt.gamma_factor;
  cfg.fallback_factor = opt.fallback_factor;
  return cfg;
}

template <typename P>
sim::PolicyFactory stateless() {
  return [] { return std::make_unique<P>(); };
}

void register_builtins(SolverRegistry& r) {
  r.add("suu-i-sem",
        [](const core::Instance& inst, const SolverOptions& opt) {
          algos::SuuISemPolicy::Config cfg;
          cfg.lp1 = opt.lp1;
          if (opt.share_precompute) {
            cfg.round1 = algos::SuuISemPolicy::precompute_round1(inst, opt.lp1);
          }
          return [cfg] {
            return std::make_unique<algos::SuuISemPolicy>(cfg);
          };
        },
        "SUU-I-SEM, semioblivious doubling rounds (Thm 4, "
        "O(log log min{m,n}))");
  r.add("suu-i",
        [](const core::Instance& inst, const SolverOptions& opt) {
          return SolverRegistry::global().prepare(inst, "suu-i-sem", opt)
              .factory;
        },
        "alias for suu-i-sem");
  r.add("suu-i-obl",
        [](const core::Instance& inst, const SolverOptions& opt) {
          if (opt.share_precompute) {
            auto pre = algos::SuuIOblPolicy::precompute(inst, opt.lp1);
            return sim::PolicyFactory([pre] {
              return std::make_unique<algos::SuuIOblPolicy>(pre);
            });
          }
          const rounding::Lp1Options lp1 = opt.lp1;
          return sim::PolicyFactory([lp1] {
            return std::make_unique<algos::SuuIOblPolicy>(lp1);
          });
        },
        "SUU-I-OBL, repeated oblivious LP1 schedule (Thm 3, O(log n))");
  r.add("suu-c",
        [](const core::Instance& inst, const SolverOptions& opt) {
          SUU_CHECK_MSG(inst.dag().is_chains(),
                        "suu-c requires a disjoint-chains dag; use 'auto' "
                        "or 'suu-t' for forests");
          algos::SuuCPolicy::Config cfg = suu_c_config(opt);
          if (opt.share_precompute) {
            cfg.lp2 = algos::SuuCPolicy::precompute(
                inst, inst.dag().chains(), opt.lp1.engine, opt.lp1.pricing);
          }
          return [cfg] { return std::make_unique<algos::SuuCPolicy>(cfg); };
        },
        "SUU-C, adaptive pseudoschedule over rounded LP2 (Thm 9, chains)");
  r.add("suu-t",
        [](const core::Instance& inst, const SolverOptions& opt) {
          SUU_CHECK_MSG(
              inst.dag().is_out_forest() || inst.dag().is_in_forest(),
              "suu-t requires a directed-forest dag");
          const algos::SuuCPolicy::Config cfg = suu_c_config(opt);
          std::shared_ptr<const algos::SuuTPolicy::BlockCache> cache;
          if (opt.share_precompute) {
            cache = algos::SuuTPolicy::precompute(inst, opt.lp1.engine,
                                                  opt.lp1.pricing);
          }
          return [cfg, cache] {
            return cache ? std::make_unique<algos::SuuTPolicy>(cfg, cache)
                         : std::make_unique<algos::SuuTPolicy>(cfg);
          };
        },
        "SUU-T, heavy-path blocks of SUU-C (Thm 12, forests)");
  // The exact solvers keep a pointer to the prepare-time Instance inside
  // ExactSolver/WidthExactSolver, so their factories must not outlive it:
  // cacheable = false keeps them out of the PrecomputeCache.
  r.add("exact-dp",
        [](const core::Instance& inst, const SolverOptions&) {
          auto solver = std::make_shared<const algos::ExactSolver>(inst);
          return [solver] {
            return std::make_unique<algos::ExactOptPolicy>(solver);
          };
        },
        "exact optimal policy via the subset-lattice DP (tiny instances)",
        /*cacheable=*/false);
  r.add("width-dp",
        [](const core::Instance& inst, const SolverOptions&) {
          auto solver = std::make_shared<const algos::WidthExactSolver>(inst);
          return [solver] {
            return std::make_unique<algos::WidthOptPolicy>(solver);
          };
        },
        "exact optimal policy via the Malewicz width-parameterized DP",
        /*cacheable=*/false);
  r.add("all-on-one",
        [](const core::Instance&, const SolverOptions&) {
          return stateless<algos::AllOnOnePolicy>();
        },
        "every machine gangs up on one eligible job (trivial O(n))");
  r.add("round-robin",
        [](const core::Instance&, const SolverOptions&) {
          return stateless<algos::RoundRobinPolicy>();
        },
        "machines spread cyclically over eligible jobs");
  r.add("best-machine",
        [](const core::Instance&, const SolverOptions&) {
          return stateless<algos::BestMachinePolicy>();
        },
        "each job waits for its most reliable machine");
  r.add("adaptive-greedy",
        [](const core::Instance&, const SolverOptions&) {
          return stateless<algos::AdaptiveGreedyPolicy>();
        },
        "fully adaptive per-step submodular greedy (conclusion conjecture)");
  r.add("greedy-lr",
        [](const core::Instance&, const SolverOptions&) {
          return stateless<algos::GreedyLrPolicy>();
        },
        "Lin-Rajaraman-flavor greedy rounds (O(log n) baseline)");
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* reg = [] {
    auto* r = new SolverRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void SolverRegistry::add(const std::string& name, Preparer prepare,
                         std::string summary, bool cacheable) {
  SUU_CHECK_MSG(name != "auto", "'auto' is reserved for structure dispatch");
  SUU_CHECK_MSG(!name.empty(), "solver name must be non-empty");
  SUU_CHECK_MSG(prepare != nullptr, "solver '" << name << "' needs a preparer");
  const bool inserted =
      entries_
          .emplace(name,
                   Entry{std::move(prepare), std::move(summary), cacheable})
          .second;
  SUU_CHECK_MSG(inserted, "solver '" << name << "' is already registered");
}

bool SolverRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

const std::string& SolverRegistry::summary(const std::string& name) const {
  const auto it = entries_.find(name);
  SUU_CHECK_MSG(it != entries_.end(), "unknown solver '" << name << "'");
  return it->second.summary;
}

PreparedSolver SolverRegistry::prepare(const core::Instance& inst,
                                       const std::string& name,
                                       const SolverOptions& opt) const {
  const std::string resolved = (name == "auto") ? dispatch(inst) : name;
  const auto it = entries_.find(resolved);
  if (it == entries_.end()) {
    std::ostringstream known;
    for (const auto& [n, entry] : entries_) known << ' ' << n;
    SUU_CHECK_MSG(false, "unknown solver '" << resolved << "'; registered:"
                                            << known.str());
  }
  // Caching requires the prepared artifacts to be shareable
  // (share_precompute) and free of borrowed Instance pointers (the entry's
  // cacheable flag).
  const bool cacheable =
      it->second.cacheable && opt.share_precompute && opt.reuse_cache;
  if (!cacheable) {
    return PreparedSolver{resolved, it->second.prepare(inst, opt)};
  }
  const Preparer& preparer = it->second.prepare;
  sim::PolicyFactory factory = PrecomputeCache::global().get_or_prepare(
      prepare_key(inst, resolved, opt), [&] { return preparer(inst, opt); });
  return PreparedSolver{resolved, std::move(factory)};
}

// Prepare key: every field a preparer can read must be folded in, or two
// differently-configured cells could alias one prepared solver. The
// static_assert is the tripwire: adding a field to SolverOptions (or
// Lp1Options) changes the struct size and fails the build here — fold the
// new field into the hash below, then update the expected size.
static_assert(sizeof(rounding::Lp1Options) ==
                  2 * sizeof(int) + sizeof(lp::SimplexEngine) +
                      sizeof(lp::PricingRule),
              "Lp1Options changed: fold the new field into prepare_key");
static_assert(sizeof(SolverOptions) == sizeof(rounding::Lp1Options) +
                                           4 * sizeof(bool) +
                                           2 * sizeof(double) + /*padding*/ 4,
              "SolverOptions changed: fold the new field into prepare_key");
std::uint64_t SolverRegistry::prepare_key(const core::Instance& inst,
                                          const std::string& name,
                                          const SolverOptions& opt) {
  std::uint64_t h = inst.fingerprint();
  h = util::hash_combine(h, std::string_view(name));
  h = util::hash_combine(h, static_cast<std::uint64_t>(opt.lp1.solver));
  h = util::hash_combine(h,
                         static_cast<std::uint64_t>(opt.lp1.simplex_size_limit));
  h = util::hash_combine(h, static_cast<std::uint64_t>(opt.lp1.engine));
  h = util::hash_combine(h, static_cast<std::uint64_t>(opt.lp1.pricing));
  h = util::hash_combine(h, static_cast<std::uint64_t>(opt.share_precompute));
  h = util::hash_combine(h, static_cast<std::uint64_t>(opt.random_delays));
  h = util::hash_combine(h, static_cast<std::uint64_t>(opt.grid_rounding));
  h = util::hash_combine(h, opt.gamma_factor);
  h = util::hash_combine(h, opt.fallback_factor);
  return h;
}

std::string SolverRegistry::dispatch(const core::Instance& inst) {
  const core::Dag& dag = inst.dag();
  if (dag.is_empty()) return "suu-i-sem";
  if (dag.is_chains()) return "suu-c";
  if (dag.is_out_forest() || dag.is_in_forest()) return "suu-t";
  return "all-on-one";
}

PreparedSolver make_solver(const core::Instance& inst, const std::string& name,
                           const SolverOptions& opt) {
  return SolverRegistry::global().prepare(inst, name, opt);
}

PreparedSolver solve_auto(const core::Instance& inst,
                          const SolverOptions& opt) {
  return SolverRegistry::global().prepare(inst, "auto", opt);
}

algos::LowerBound lower_bound_auto(const core::Instance& inst,
                                   const rounding::Lp1Options& opt) {
  const core::Dag& dag = inst.dag();
  if (dag.is_empty()) return algos::lower_bound_independent(inst, opt);
  if (dag.is_chains()) {
    return algos::lower_bound_chains(inst, dag.chains(), opt);
  }
  if (dag.is_out_forest() || dag.is_in_forest()) {
    const chains::Decomposition dec = chains::decompose_forest(dag);
    std::vector<std::vector<int>> all;
    for (const auto& block : dec.blocks) {
      all.insert(all.end(), block.begin(), block.end());
    }
    return algos::lower_bound_chains(inst, all, opt);
  }
  return algos::lower_bound_independent(inst, opt);
}

}  // namespace suu::api
