#include "ctmc/transient.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/builder.h"
#include "ctmc/steady_state.h"
#include "lint/diagnostic.h"

namespace rascal::ctmc {
namespace {

Ctmc two_state(double lambda, double mu) {
  CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, lambda).rate(1, 0, mu);
  return b.build();
}

// Closed form for the 2-state chain started Up:
// P(Up at t) = mu/(l+m) + l/(l+m) * exp(-(l+m) t).
double p_up(double lambda, double mu, double t) {
  const double s = lambda + mu;
  return mu / s + lambda / s * std::exp(-s * t);
}

TEST(Transient, MatchesTwoStateClosedForm) {
  const double lambda = 0.7;
  const double mu = 1.9;
  const Ctmc chain = two_state(lambda, mu);
  for (double t : {0.0, 0.1, 0.5, 1.0, 3.0, 10.0}) {
    const auto result =
        transient_distribution(chain, linalg::Vector{1.0, 0.0}, t);
    EXPECT_NEAR(result.probabilities[0], p_up(lambda, mu, t), 1e-10)
        << "t=" << t;
  }
}

TEST(Transient, ConvergesToSteadyState) {
  const Ctmc chain = two_state(0.4, 1.1);
  const SteadyState steady = solve_steady_state(chain);
  const auto late =
      transient_distribution(chain, linalg::Vector{1.0, 0.0}, 100.0);
  EXPECT_NEAR(late.probabilities[0], steady.probability(0), 1e-9);
  EXPECT_NEAR(late.probabilities[1], steady.probability(1), 1e-9);
}

TEST(Transient, ZeroTimeReturnsInitial) {
  const Ctmc chain = two_state(1.0, 1.0);
  const auto result =
      transient_distribution(chain, linalg::Vector{0.0, 1.0}, 0.0);
  EXPECT_DOUBLE_EQ(result.probabilities[0], 0.0);
  EXPECT_DOUBLE_EQ(result.probabilities[1], 1.0);
}

TEST(Transient, DistributionStaysNormalized) {
  CtmcBuilder b;
  b.state("A", 1.0);
  b.state("B", 1.0);
  b.state("C", 0.0);
  b.rate(0, 1, 2.0).rate(1, 2, 3.0).rate(2, 0, 0.5).rate(1, 0, 1.0);
  const Ctmc chain = b.build();
  for (double t : {0.01, 0.3, 2.0, 20.0}) {
    const auto result =
        transient_distribution(chain, linalg::Vector{1.0, 0.0, 0.0}, t);
    double sum = 0.0;
    for (double p : result.probabilities) {
      EXPECT_GE(p, -1e-15);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Transient, HonoursInitialDistribution) {
  // The symmetric chain started at its stationary distribution stays
  // there for all horizons.
  const Ctmc chain = two_state(1.0, 1.0);
  const auto result =
      transient_distribution(chain, linalg::Vector{0.5, 0.5}, 40.0);
  EXPECT_NEAR(result.probabilities[0], 0.5, 1e-10);
}

TEST(Transient, ValidatesInput) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(
      (void)transient_distribution(chain, linalg::Vector{1.0, 0.0}, -1.0),
      std::invalid_argument);
  EXPECT_THROW(
      (void)transient_distribution(chain, linalg::Vector{0.7, 0.7}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      (void)transient_distribution(chain, linalg::Vector{1.0}, 1.0),
      std::invalid_argument);
}

TEST(Transient, MaxTermsGuardsStiffChains) {
  const Ctmc chain = two_state(1e6, 1e6);
  TransientOptions options;
  options.max_terms = 10;
  // With validation on the infeasible horizon is rejected up front
  // (R032); with it off the summation loop itself trips the cap.
  const linalg::Vector up{1.0, 0.0};
  EXPECT_THROW((void)transient_distribution(chain, up, 1000.0, options),
               rascal::lint::LintError);
  options.validate = false;
  EXPECT_THROW((void)transient_distribution(chain, up, 1000.0, options),
               std::runtime_error);
}

TEST(IntervalReward, TwoStateMatchesIntegralOfClosedForm) {
  const double lambda = 0.6;
  const double mu = 2.4;
  const Ctmc chain = two_state(lambda, mu);
  const double t = 2.0;
  // Integral of p_up over [0, t].
  const double s = lambda + mu;
  const double expected =
      mu / s * t + lambda / (s * s) * (1.0 - std::exp(-s * t));
  const auto result =
      expected_interval_reward(chain, linalg::Vector{1.0, 0.0}, t);
  EXPECT_NEAR(result.accumulated_reward, expected, 1e-9);
  EXPECT_NEAR(result.time_averaged, expected / t, 1e-9);
}

TEST(IntervalReward, InstantaneousAvailabilityBoundsIntervalAvailability) {
  // Starting from Up, interval availability decreases toward the
  // steady state but stays above it.
  const Ctmc chain = two_state(0.5, 5.0);
  const SteadyState steady = solve_steady_state(chain);
  const auto result =
      expected_interval_reward(chain, linalg::Vector{1.0, 0.0}, 3.0);
  EXPECT_GT(result.time_averaged, steady.probability(0));
  EXPECT_LT(result.time_averaged, 1.0);
}

TEST(IntervalReward, RequiresPositiveHorizon) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(
      (void)expected_interval_reward(chain, linalg::Vector{1.0, 0.0}, 0.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace rascal::ctmc
