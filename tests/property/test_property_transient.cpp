// Differential transient testing: Jensen uniformization against the
// dense Pade matrix exponential, plus internal consistency of the
// accumulated-reward integral (its long-run time average must meet
// the steady-state expected reward rate).
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "check/random_model.h"
#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "ctmc/transient.h"

namespace rascal::check {
namespace {

TEST(TransientConsensus, UniformizationMatchesExpmOn60RandomModels) {
  stats::RandomEngine root(0x7EA5);
  const double horizons[] = {0.05, 0.5, 2.0, 8.0};
  for (std::uint64_t i = 0; i < 60; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const double t = horizons[i % 4];
    const OracleReport report = check_transient_consensus(model.chain, t);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << ", t=" << t << "]\n"
        << report.summary();
  }
}

TEST(TransientConsensus, StationaryStartMakesIntervalRewardExact) {
  // Started in its stationary law, the chain's time-averaged interval
  // reward equals the steady-state expected reward rate for EVERY
  // horizon — a sharp identity tying the transient integrator to the
  // steady-state solvers with no mixing-time slack.
  stats::RandomEngine root(0x1A7E);
  const double horizons[] = {0.5, 10.0, 200.0};
  for (std::uint64_t i = 0; i < 20; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const auto metrics = core::solve_availability(model.chain);
    const auto steady = ctmc::solve_steady_state(model.chain);
    const auto interval = ctmc::expected_interval_reward(
        model.chain, steady.probabilities, horizons[i % 3]);
    EXPECT_NEAR(interval.time_averaged, metrics.expected_reward_rate, 1e-9)
        << model.description << " [stream " << i << ", t="
        << horizons[i % 3] << "]";
  }
}

TEST(TransientConsensus, ShortHorizonStaysNearInitialState) {
  // pi(dt) must concentrate on the initial state for dt much smaller
  // than every holding time — a sanity anchor independent of both
  // transient solvers' numerics.
  stats::RandomEngine rng(0xD7);
  const GeneratedModel model = random_ergodic_ctmc(rng);
  linalg::Vector start(model.chain.num_states(), 0.0);
  start[0] = 1.0;
  const auto result = ctmc::transient_distribution(model.chain, start, 1e-6);
  EXPECT_GT(result.probabilities[0], 0.999);
}

}  // namespace
}  // namespace rascal::check
