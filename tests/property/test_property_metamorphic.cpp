// Metamorphic properties: known input transformations with known
// output transformations.  These catch shared biases that differential
// testing cannot (all solvers could be wrong the same way; they cannot
// all violate rate-rescaling covariance the same way by accident).
#include <gtest/gtest.h>

#include <cmath>

#include "check/random_model.h"
#include "check/reference_twins.h"
#include "core/metrics.h"
#include "ctmc/absorption.h"
#include "ctmc/builder.h"
#include "ctmc/compose.h"
#include "ctmc/erlang.h"
#include "ctmc/lumping.h"
#include "ctmc/steady_state.h"

namespace rascal::check {
namespace {

// Uniformly speeding a chain up by c leaves the stationary law
// untouched and divides every first-passage time by c.
TEST(Metamorphic, RateRescalingScalesMttfInversely) {
  stats::RandomEngine root(0x5CA1E);
  const double factors[] = {0.25, 3.0, 40.0};
  for (std::uint64_t i = 0; i < 40; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const double c = factors[i % 3];
    const ctmc::Ctmc scaled = rescale_rates(model.chain, c);

    const auto base = ctmc::solve_steady_state(model.chain);
    const auto fast = ctmc::solve_steady_state(scaled);
    for (std::size_t s = 0; s < model.chain.num_states(); ++s) {
      EXPECT_NEAR(base.probabilities[s], fast.probabilities[s], 1e-10)
          << model.description << " state " << s;
    }

    const auto down = model.chain.states_with_reward_below(0.5);
    ASSERT_FALSE(down.empty());
    const auto mttf = ctmc::mean_time_to_absorption(model.chain, down);
    const auto mttf_scaled = ctmc::mean_time_to_absorption(scaled, down);
    EXPECT_NEAR(mttf_scaled[0], mttf[0] / c, 1e-9 * mttf[0] / c + 1e-12)
        << model.description << " [stream " << i << "]";
  }
}

TEST(Metamorphic, ErlangChainMttaMatchesClosedForm) {
  stats::RandomEngine root(0xE51A);
  for (std::uint64_t i = 0; i < 40; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_erlang_chain(rng);
    ASSERT_TRUE(model.analytic_mtta.has_value());
    const auto absorbed = model.chain.state("absorbed");
    const auto times =
        ctmc::mean_time_to_absorption(model.chain, {absorbed});
    EXPECT_NEAR(times[0], *model.analytic_mtta,
                1e-9 * *model.analytic_mtta)
        << model.description << " [stream " << i << "]";
  }
}

// Lumping instance identities out of a symmetric redundant system
// must preserve every reward-level metric — exactly the quotient the
// paper takes from per-node chains to occupancy counts.
TEST(Metamorphic, LumpingIdenticalUnitsPreservesMetrics) {
  stats::RandomEngine root(0x10FF);
  for (std::uint64_t i = 0; i < 15; ++i) {
    stats::RandomEngine rng = root.split(i);
    const double lambda = rng.uniform(0.05, 2.0);
    const double mu = rng.uniform(0.5, 20.0);
    const std::size_t units = 2 + rng.uniform_index(3);  // 2..4

    ctmc::CtmcBuilder unit;
    unit.state("up", 1.0);
    unit.state("down", 0.0);
    unit.rate(0, 1, lambda).rate(1, 0, mu);
    const std::vector<ctmc::Ctmc> parts(units, unit.build());
    const ctmc::Ctmc joint = ctmc::compose_independent(parts);

    const ctmc::Partition partition =
        ctmc::coarsest_ordinary_lumping(joint);
    // Identical units lump to occupancy counts: units + 1 blocks.
    EXPECT_EQ(partition.size(), units + 1)
        << "units=" << units << " [stream " << i << "]";
    ASSERT_TRUE(ctmc::is_lumpable(joint, partition));
    const ctmc::Ctmc quotient = check::lump(joint, partition);

    const auto full = core::solve_availability(joint);
    const auto lumped = core::solve_availability(quotient);
    EXPECT_NEAR(full.availability, lumped.availability, 1e-12);
    EXPECT_NEAR(full.failure_frequency, lumped.failure_frequency,
                1e-12 + 1e-9 * full.failure_frequency);
    EXPECT_NEAR(full.expected_reward_rate, lumped.expected_reward_rate,
                1e-12);
  }
}

// Independent submodels in series: the exact product-space model's
// availability is the product of component availabilities.
TEST(Metamorphic, ComposeOfIndependentModelsIsProductModel) {
  stats::RandomEngine root(0xA0D);
  RandomModelOptions small;
  small.min_states = 3;
  small.max_states = 6;
  for (std::uint64_t i = 0; i < 25; ++i) {
    stats::RandomEngine rng = root.split(i);
    std::vector<ctmc::Ctmc> parts;
    double product = 1.0;
    for (int k = 0; k < 2; ++k) {
      const GeneratedModel model = random_ergodic_ctmc(rng, small);
      product *= core::solve_availability(model.chain).availability;
      parts.push_back(model.chain);
    }
    const ctmc::Ctmc joint = ctmc::compose_independent(parts);
    const auto metrics = core::solve_availability(joint);
    EXPECT_NEAR(metrics.availability, product, 1e-10)
        << "[stream " << i << "]";
  }
}

// The RAScad hierarchy abstraction: a submodel's two-state equivalent
// must preserve its availability and failure frequency exactly.
TEST(Metamorphic, TwoStateEquivalentPreservesAvailabilityAndFrequency) {
  stats::RandomEngine root(0x2E0);
  for (std::uint64_t i = 0; i < 40; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const auto steady = ctmc::solve_steady_state(model.chain);
    const auto metrics = core::availability_metrics(model.chain, steady);
    const auto equivalent =
        core::two_state_equivalent(model.chain, steady);

    ctmc::CtmcBuilder b;
    b.state("Up", 1.0);
    b.state("Down", 0.0);
    b.rate(0, 1, equivalent.lambda_eq).rate(1, 0, equivalent.mu_eq);
    const auto collapsed = core::solve_availability(b.build());
    EXPECT_NEAR(collapsed.availability, metrics.availability, 1e-10)
        << model.description << " [stream " << i << "]";
    EXPECT_NEAR(collapsed.failure_frequency, metrics.failure_frequency,
                1e-10 + 1e-9 * metrics.failure_frequency)
        << model.description << " [stream " << i << "]";
  }
}

// Erlang stage expansion keeps the repair-time mean, and alternating
// renewal availability depends only on the means — so availability
// and MTTF are invariant under erlangization of the repair edge.
TEST(Metamorphic, ErlangizingRepairPreservesAvailability) {
  stats::RandomEngine root(0xE12);
  for (std::uint64_t i = 0; i < 20; ++i) {
    stats::RandomEngine rng = root.split(i);
    const double lambda = rng.uniform(0.01, 1.0);
    const double mu = rng.uniform(1.0, 30.0);
    const std::size_t stages = 2 + rng.uniform_index(5);  // 2..6

    ctmc::CtmcBuilder b;
    const auto up = b.state("Up", 1.0);
    const auto down = b.state("Down", 0.0);
    b.rate(up, down, lambda).rate(down, up, mu);
    const ctmc::Ctmc base = b.build();
    const ctmc::Ctmc staged = ctmc::erlangize(base, down, up, stages);
    EXPECT_EQ(staged.num_states(), 1 + stages);

    const auto before = core::solve_availability(base);
    const auto after = core::solve_availability(staged);
    EXPECT_NEAR(after.availability, before.availability, 1e-11)
        << "stages=" << stages << " [stream " << i << "]";
    EXPECT_NEAR(after.mttr_hours, before.mttr_hours,
                1e-9 * before.mttr_hours)
        << "stages=" << stages << " [stream " << i << "]";
  }
}

}  // namespace
}  // namespace rascal::check
