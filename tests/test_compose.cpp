#include "ctmc/compose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/metrics.h"
#include "ctmc/builder.h"
#include "ctmc/steady_state.h"
#include "lint/lint.h"

namespace rascal::ctmc {
namespace {

Ctmc two_state(const std::string& prefix, double lambda, double mu) {
  CtmcBuilder b;
  b.state(prefix + "Up", 1.0);
  b.state(prefix + "Down", 0.0);
  b.rate(0, 1, lambda).rate(1, 0, mu);
  return b.build();
}

TEST(Compose, ProductSpaceSizeAndNames) {
  const Ctmc joint = compose_independent(
      {two_state("a", 0.1, 1.0), two_state("b", 0.2, 2.0)});
  EXPECT_EQ(joint.num_states(), 4u);
  EXPECT_TRUE(joint.find_state("aUp|bUp@0").has_value());
  EXPECT_TRUE(joint.find_state("aDown|bDown@3").has_value());
}

TEST(Compose, IndependenceFactorizesTheStationaryDistribution) {
  const Ctmc a = two_state("a", 0.3, 1.2);
  const Ctmc b = two_state("b", 0.7, 2.5);
  const Ctmc joint = compose_independent({a, b});

  const auto pi_a = solve_steady_state(a);
  const auto pi_b = solve_steady_state(b);
  const auto pi = solve_steady_state(joint);
  for (StateId i = 0; i < 2; ++i) {
    for (StateId j = 0; j < 2; ++j) {
      // Row-major: the last component varies fastest.
      const StateId id = i * b.num_states() + j;
      EXPECT_NEAR(pi.probability(id),
                  pi_a.probability(i) * pi_b.probability(j), 1e-12);
    }
  }
}

TEST(Compose, SeriesRewardIsMinimum) {
  const Ctmc joint = compose_independent(
      {two_state("a", 0.1, 1.0), two_state("b", 0.2, 2.0)});
  // Up only when both components are up.
  EXPECT_DOUBLE_EQ(joint.reward(0), 1.0);
  EXPECT_DOUBLE_EQ(joint.reward(1), 0.0);
  EXPECT_DOUBLE_EQ(joint.reward(2), 0.0);
  EXPECT_DOUBLE_EQ(joint.reward(3), 0.0);
}

TEST(Compose, ParallelRewardIsMaximum) {
  const Ctmc joint = compose_independent(
      {two_state("a", 0.1, 1.0), two_state("b", 0.2, 2.0)},
      [](const std::vector<double>& r) {
        return *std::max_element(r.begin(), r.end());
      });
  // Down only when both are down.
  EXPECT_DOUBLE_EQ(joint.reward(0), 1.0);
  EXPECT_DOUBLE_EQ(joint.reward(1), 1.0);
  EXPECT_DOUBLE_EQ(joint.reward(2), 1.0);
  EXPECT_DOUBLE_EQ(joint.reward(3), 0.0);
}

TEST(Compose, SeriesAvailabilityIsProductOfComponents) {
  const Ctmc a = two_state("a", 0.05, 1.0);
  const Ctmc b = two_state("b", 0.02, 0.5);
  const double aa = core::solve_availability(a).availability;
  const double ab = core::solve_availability(b).availability;
  const auto joint =
      core::solve_availability(compose_independent({a, b}));
  EXPECT_NEAR(joint.availability, aa * ab, 1e-12);
}

TEST(Compose, ParallelSystemBeatsEitherComponent) {
  const Ctmc a = two_state("a", 0.5, 1.0);
  const Ctmc b = two_state("b", 0.5, 1.0);
  const auto joint = core::solve_availability(compose_independent(
      {a, b}, [](const std::vector<double>& r) {
        return *std::max_element(r.begin(), r.end());
      }));
  const double single = core::solve_availability(a).availability;
  EXPECT_GT(joint.availability, single);
  // 1 - (1-A)^2 for iid components.
  EXPECT_NEAR(joint.availability, 1.0 - (1.0 - single) * (1.0 - single),
              1e-12);
}

TEST(Compose, ThreeComponentsAndSingletonIdentity) {
  const Ctmc a = two_state("a", 0.1, 1.0);
  // Composing a single chain is the chain itself (up to names).
  const Ctmc solo = compose_independent({a});
  EXPECT_EQ(solo.num_states(), a.num_states());
  EXPECT_NEAR(core::solve_availability(solo).availability,
              core::solve_availability(a).availability, 1e-15);

  const Ctmc triple = compose_independent(
      {a, two_state("b", 0.2, 1.0), two_state("c", 0.3, 1.0)});
  EXPECT_EQ(triple.num_states(), 8u);
  EXPECT_FALSE(
      lint::lint_ctmc(triple).has_code(lint::codes::kNotIrreducible));
}

TEST(Compose, Validation) {
  EXPECT_THROW((void)compose_independent({}), std::invalid_argument);
  const Ctmc a = two_state("a", 0.1, 1.0);
  EXPECT_THROW((void)compose_independent({a}, RewardCombiner{}),
               std::invalid_argument);
  ComposeOptions tight;
  tight.max_states = 3;
  EXPECT_THROW((void)compose_independent({a, a}, min_reward_combiner(),
                                         tight),
               std::runtime_error);
}

}  // namespace
}  // namespace rascal::ctmc
