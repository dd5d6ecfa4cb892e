// Unit tests for the pricing module (lp/pricing.hpp) and the hardened
// SUU_LP_REFACTOR_INTERVAL parsing (lp/basis.hpp). The end-to-end pricing
// guarantees — identical verdicts and optima across every rule on both
// engines — live in test_lp_differential.cpp; this file pins the local
// contracts: spelling parsers, Auto resolution, the Devex reference-weight
// recurrence, and a small all-rules optimum check with exact expected
// values.
#include <cmath>

#include <gtest/gtest.h>

#include "lp/basis.hpp"
#include "lp/pricing.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace suu::lp {
namespace {

TEST(RefactorInterval, AcceptsBarePositiveDecimals) {
  EXPECT_EQ(parse_refactor_interval("1"), 1);
  EXPECT_EQ(parse_refactor_interval("64"), 64);
  EXPECT_EQ(parse_refactor_interval("100000"), 100000);
  EXPECT_EQ(parse_refactor_interval("007"), 7);  // leading zeros are fine
}

TEST(RefactorInterval, RejectsEverythingElse) {
  // Each of these must fall back to the default, never clamp: a
  // misconfigured env var silently running with interval 1 (the old
  // behaviour for "0" and negatives) tanks the revised engine.
  const char* bad[] = {"",       "0",     "-5",        "abc",
                       "64abc",  "6 4",   " 64",       "64 ",
                       "1e3",    "+64",   "0x40",      "100001",
                       "999999999999999999999"};
  for (const char* s : bad) {
    EXPECT_EQ(parse_refactor_interval(s), kDefaultRefactorInterval)
        << "input \"" << s << '"';
  }
  EXPECT_EQ(parse_refactor_interval(nullptr), kDefaultRefactorInterval);
}

TEST(PricingRule_, ParsesWireSpellings) {
  PricingRule r = PricingRule::Auto;
  ASSERT_TRUE(pricing::parse_pricing_rule("dantzig", &r));
  EXPECT_EQ(r, PricingRule::Dantzig);
  ASSERT_TRUE(pricing::parse_pricing_rule("devex", &r));
  EXPECT_EQ(r, PricingRule::Devex);
  ASSERT_TRUE(pricing::parse_pricing_rule("auto", &r));
  EXPECT_EQ(r, PricingRule::Auto);

  r = PricingRule::Devex;
  // "steepest" named a removed rule; it parses like any unknown word.
  for (const char* s : {"", "Devex", "DANTZIG", "steepest", "bland",
                        "devex1", "auto\n"}) {
    EXPECT_FALSE(pricing::parse_pricing_rule(s, &r)) << "input \"" << s
                                                     << '"';
    EXPECT_EQ(r, PricingRule::Devex) << "rejected parse must not write";
  }
}

TEST(PricingRule_, SpellingsRoundTripThroughToString) {
  for (const PricingRule r :
       {PricingRule::Auto, PricingRule::Dantzig, PricingRule::Devex}) {
    PricingRule back = PricingRule::Auto;
    ASSERT_TRUE(pricing::parse_pricing_rule(to_string(r), &back))
        << to_string(r);
    EXPECT_EQ(back, r);
  }
}

TEST(PricingRule_, AutoResolvesPerEngine) {
  using pricing::resolve_pricing;
  // Auto keeps the historical rule on the tableau (byte-recorded
  // trajectories) and upgrades the revised engine to Devex.
  EXPECT_EQ(resolve_pricing(PricingRule::Auto, SimplexEngine::Tableau),
            PricingRule::Dantzig);
  EXPECT_EQ(resolve_pricing(PricingRule::Auto, SimplexEngine::Revised),
            PricingRule::Devex);
  // Explicit rules pass through untouched on either engine.
  for (const SimplexEngine e :
       {SimplexEngine::Tableau, SimplexEngine::Revised}) {
    EXPECT_EQ(resolve_pricing(PricingRule::Dantzig, e), PricingRule::Dantzig);
    EXPECT_EQ(resolve_pricing(PricingRule::Devex, e), PricingRule::Devex);
  }
}

TEST(ReferenceWeights, ResetActivationAndScore) {
  pricing::ReferenceWeights w;
  EXPECT_FALSE(w.active());
  w.reset(4);
  ASSERT_TRUE(w.active());
  for (int j = 0; j < 4; ++j) EXPECT_EQ(w[j], 1.0);
  // score = d^2 / w_j: at unit weights, ranking degenerates to |d| —
  // i.e. a fresh framework starts out agreeing with Dantzig.
  EXPECT_DOUBLE_EQ(w.score(0, -3.0), 9.0);
  EXPECT_DOUBLE_EQ(w.score(1, 2.0), 4.0);
  w.deactivate();
  EXPECT_FALSE(w.active());
}

TEST(ReferenceWeights, DevexUpdateIsMonotoneMax) {
  pricing::ReferenceWeights w;
  w.reset(3);
  // w_j <- max(w_j, r^2 * w_q): grows to 4, never shrinks back.
  w.note_devex(0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 4.0);
  w.note_devex(0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 4.0);
  // score divides by the grown weight, demoting the long column.
  EXPECT_DOUBLE_EQ(w.score(0, -2.0), 1.0);
  EXPECT_FALSE(w.needs_reset());
}

TEST(ReferenceWeights, LeavingWeightAndResetThreshold) {
  pricing::ReferenceWeights w;
  w.reset(2);
  // Leaving variable gets max(w_q / piv^2, 1).
  w.set_leaving(0, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(w[0], 16.0);
  w.set_leaving(1, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
  EXPECT_FALSE(w.needs_reset());
  // Crossing kWeightResetThreshold latches needs_reset until reset().
  w.note_devex(0, 1e5, 2.0);
  EXPECT_TRUE(w.needs_reset());
  w.reset(2);
  EXPECT_FALSE(w.needs_reset());
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(Pricing, AllRulesReachTheSameOptimumOnBothEngines) {
  // Tiny LP1-shaped program with a hand-checkable optimum: two jobs, two
  // machines, min t with unit covers and load rows — t* = 1 (one job per
  // machine at x = 1).
  Problem p;
  const int t = p.add_var(1.0);
  const int x00 = p.add_var(0.0);
  const int x10 = p.add_var(0.0);
  const int x01 = p.add_var(0.0);
  const int x11 = p.add_var(0.0);
  Row c0;
  c0.rel = Rel::Ge;
  c0.rhs = 1.0;
  c0.terms = {{x00, 1.0}, {x10, 1.0}};
  p.add_row(std::move(c0));
  Row c1;
  c1.rel = Rel::Ge;
  c1.rhs = 1.0;
  c1.terms = {{x01, 1.0}, {x11, 1.0}};
  p.add_row(std::move(c1));
  Row l0;
  l0.rel = Rel::Le;
  l0.rhs = 0.0;
  l0.terms = {{x00, 1.0}, {x01, 1.0}, {t, -1.0}};
  p.add_row(std::move(l0));
  Row l1;
  l1.rel = Rel::Le;
  l1.rhs = 0.0;
  l1.terms = {{x10, 1.0}, {x11, 1.0}, {t, -1.0}};
  p.add_row(std::move(l1));

  for (const SimplexEngine e :
       {SimplexEngine::Tableau, SimplexEngine::Revised}) {
    for (const PricingRule r :
         {PricingRule::Auto, PricingRule::Dantzig, PricingRule::Devex}) {
      SimplexOptions opt;
      opt.engine = e;
      opt.pricing = r;
      const Solution s = solve_simplex(p, opt);
      ASSERT_EQ(s.status, Status::Optimal)
          << to_string(e) << '/' << to_string(r);
      EXPECT_NEAR(s.objective, 1.0, 1e-9)
          << to_string(e) << '/' << to_string(r);
    }
  }
}

}  // namespace
}  // namespace suu::lp
