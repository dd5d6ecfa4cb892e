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

/// Relaxations record for programs solved for `inst` under opt.lp1.
std::shared_ptr<algos::Relaxations> relaxations_for(
    const core::Instance& inst, const SolverOptions& opt) {
  auto r = std::make_shared<algos::Relaxations>();
  r->fingerprint = inst.fingerprint();
  r->opt = opt.lp1;
  return r;
}

}  // namespace

// The paper solvers register through add_entry so they can report the
// relaxation optima they solve; the rest use the public add().
void SolverRegistry::register_builtins(SolverRegistry& r) {
  r.add_entry("suu-i-sem",
              [](const core::Instance& inst, const SolverOptions& opt) {
                algos::SuuISemPolicy::Config cfg;
                cfg.lp1 = opt.lp1;
                std::shared_ptr<algos::Relaxations> values;
                if (opt.share_precompute) {
                  cfg.round1 =
                      algos::SuuISemPolicy::precompute_round1(inst, opt.lp1);
                  values = relaxations_for(inst, opt);
                  values->lp1_all_half = cfg.round1->lower_bound;
                }
                return PreparedParts{
                    [cfg] {
                      return std::make_unique<algos::SuuISemPolicy>(cfg);
                    },
                    std::move(values)};
              },
              "SUU-I-SEM, semioblivious doubling rounds (Thm 4, "
              "O(log log min{m,n}))");
  r.add_entry("suu-i",
              [](const core::Instance& inst, const SolverOptions& opt) {
                PreparedSolver sem =
                    SolverRegistry::global().prepare(inst, "suu-i-sem", opt);
                return PreparedParts{std::move(sem.factory),
                                     std::move(sem.relaxations)};
              },
              "alias for suu-i-sem");
  r.add_entry("suu-i-obl",
              [](const core::Instance& inst, const SolverOptions& opt) {
                if (opt.share_precompute) {
                  auto pre = algos::SuuIOblPolicy::precompute(inst, opt.lp1);
                  auto values = relaxations_for(inst, opt);
                  values->lp1_all_half = pre->lower_bound;
                  return PreparedParts{
                      [pre] {
                        return std::make_unique<algos::SuuIOblPolicy>(pre);
                      },
                      std::move(values)};
                }
                const rounding::Lp1Options lp1 = opt.lp1;
                return PreparedParts{
                    [lp1] {
                      return std::make_unique<algos::SuuIOblPolicy>(lp1);
                    },
                    nullptr};
              },
              "SUU-I-OBL, repeated oblivious LP1 schedule (Thm 3, "
              "O(log n))");
  r.add_entry("suu-c",
              [](const core::Instance& inst, const SolverOptions& opt) {
                SUU_CHECK_MSG(inst.dag().is_chains(),
                              "suu-c requires a disjoint-chains dag; use "
                              "'auto' or 'suu-t' for forests");
                algos::SuuCPolicy::Config cfg = suu_c_config(opt);
                std::shared_ptr<algos::Relaxations> values;
                if (opt.share_precompute) {
                  values = relaxations_for(inst, opt);
                  values->lp2_chains = inst.dag().chains();
                  cfg.lp2 =
                      algos::SuuCPolicy::precompute(inst, values->lp2_chains);
                  values->lp2 = cfg.lp2->t_fractional;
                }
                return PreparedParts{
                    [cfg] { return std::make_unique<algos::SuuCPolicy>(cfg); },
                    std::move(values)};
              },
              "SUU-C, adaptive pseudoschedule over rounded LP2 (Thm 9, "
              "chains)");
  // suu-t solves one LP2 per heavy-path block; the forest lower bound is
  // LP2 over all blocks at once, a different program, so suu-t reports no
  // relaxation values.
  r.add("suu-t",
        [](const core::Instance& inst, const SolverOptions& opt) {
          SUU_CHECK_MSG(
              inst.dag().is_out_forest() || inst.dag().is_in_forest(),
              "suu-t requires a directed-forest dag");
          const algos::SuuCPolicy::Config cfg = suu_c_config(opt);
          std::shared_ptr<const algos::SuuTPolicy::BlockCache> cache;
          if (opt.share_precompute) {
            cache = algos::SuuTPolicy::precompute(inst);
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
  SUU_CHECK_MSG(prepare != nullptr, "solver '" << name << "' needs a preparer");
  add_entry(
      name,
      [prepare = std::move(prepare)](const core::Instance& inst,
                                     const SolverOptions& opt) {
        return PreparedParts{prepare(inst, opt), nullptr};
      },
      std::move(summary), cacheable);
}

void SolverRegistry::add_entry(const std::string& name, PartsPreparer prepare,
                               std::string summary, bool cacheable) {
  SUU_CHECK_MSG(name != "auto", "'auto' is reserved for structure dispatch");
  SUU_CHECK_MSG(!name.empty(), "solver name must be non-empty");
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
  const PartsPreparer& preparer = it->second.prepare;
  PreparedParts parts =
      cacheable ? PrecomputeCache::global().get_or_prepare(
                      prepare_key(inst, resolved, opt),
                      [&] { return preparer(inst, opt); })
                : preparer(inst, opt);
  return PreparedSolver{resolved, std::move(parts.factory),
                        std::move(parts.relaxations)};
}

// Prepare key: every field a preparer can read must be folded in, or two
// differently-configured cells could alias one prepared solver. The
// static_assert is the tripwire: adding a field to SolverOptions (or
// Lp1Options) changes the struct size and fails the build here — fold the
// new field into the hash below, then update the expected size.
static_assert(sizeof(rounding::Lp1Options) == sizeof(int),
              "Lp1Options changed: fold the new field into prepare_key");
static_assert(sizeof(SolverOptions) == sizeof(rounding::Lp1Options) +
                                           4 * sizeof(bool) +
                                           2 * sizeof(double),
              "SolverOptions changed: fold the new field into prepare_key");
std::uint64_t SolverRegistry::prepare_key(const core::Instance& inst,
                                          const std::string& name,
                                          const SolverOptions& opt) {
  std::uint64_t h = inst.fingerprint();
  h = util::hash_combine(h, std::string_view(name));
  h = util::hash_combine(h,
                         static_cast<std::uint64_t>(opt.lp1.simplex_size_limit));
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

namespace {

algos::LowerBound lower_bound_dispatch(const core::Instance& inst,
                                       const rounding::Lp1Options& opt,
                                       const algos::Relaxations* known) {
  const core::Dag& dag = inst.dag();
  if (dag.is_empty()) return algos::lower_bound_independent(inst, opt, known);
  if (dag.is_chains()) {
    return algos::lower_bound_chains(inst, dag.chains(), opt, known);
  }
  if (dag.is_out_forest() || dag.is_in_forest()) {
    const chains::Decomposition dec = chains::decompose_forest(dag);
    std::vector<std::vector<int>> all;
    for (const auto& block : dec.blocks) {
      all.insert(all.end(), block.begin(), block.end());
    }
    return algos::lower_bound_chains(inst, all, opt, known);
  }
  return algos::lower_bound_independent(inst, opt, known);
}

}  // namespace

algos::LowerBound lower_bound_auto(const core::Instance& inst,
                                   const rounding::Lp1Options& opt) {
  return lower_bound_dispatch(inst, opt, nullptr);
}

algos::LowerBound lower_bound_auto(const core::Instance& inst,
                                   const PreparedSolver& prepared,
                                   const rounding::Lp1Options& opt) {
  return lower_bound_dispatch(inst, opt, prepared.relaxations.get());
}

}  // namespace suu::api
