#include "ctmc/lumping.h"

#include <gtest/gtest.h>

#include "check/hadb_pair_explicit.h"
#include "check/reference_twins.h"
#include "core/metrics.h"
#include "ctmc/builder.h"
#include "ctmc/steady_state.h"
#include "models/hadb_pair.h"
#include "models/params.h"

namespace rascal::ctmc {
namespace {

using check::lump;

// Symmetric 2-component machine: states by which unit is down.
Ctmc symmetric_two_unit(double lambda, double mu) {
  CtmcBuilder b;
  const auto both = b.state("BothUp", 1.0);
  const auto a_down = b.state("ADown", 1.0);
  const auto b_down = b.state("BDown", 1.0);
  const auto dead = b.state("Dead", 0.0);
  b.rate(both, a_down, lambda).rate(both, b_down, lambda);
  b.rate(a_down, both, mu).rate(b_down, both, mu);
  b.rate(a_down, dead, lambda).rate(b_down, dead, lambda);
  b.rate(dead, both, mu / 2.0);
  return b.build();
}

TEST(Lumping, SymmetricTwinsAreLumpable) {
  const Ctmc chain = symmetric_two_unit(0.1, 2.0);
  const Partition partition = {{0}, {1, 2}, {3}};
  EXPECT_TRUE(is_lumpable(chain, partition));
}

TEST(Lumping, AsymmetricRatesAreNotLumpable) {
  CtmcBuilder b;
  b.state("S", 1.0);
  b.state("A", 1.0);
  b.state("B", 1.0);
  b.state("T", 0.0);
  b.rate(0, 1, 1.0).rate(0, 2, 1.0);
  b.rate(1, 3, 5.0).rate(2, 3, 7.0);  // twins disagree on exit rate
  b.rate(3, 0, 1.0);
  std::string why;
  EXPECT_FALSE(is_lumpable(b.build(), {{0}, {1, 2}, {3}}, 1e-9, &why));
  EXPECT_NE(why.find("disagree"), std::string::npos);
}

TEST(Lumping, QuotientPreservesAvailabilityAndFrequency) {
  const Ctmc chain = symmetric_two_unit(0.05, 1.5);
  const Ctmc quotient =
      lump(chain, {{0}, {1, 2}, {3}}, {"Up", "OneDown", "Dead"});
  EXPECT_EQ(quotient.num_states(), 3u);
  // Aggregated entry rate doubles; per-state exit rates survive.
  EXPECT_DOUBLE_EQ(quotient.rate(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(quotient.rate(1, 0), 1.5);

  const auto full = core::solve_availability(chain);
  const auto lumped = core::solve_availability(quotient);
  EXPECT_NEAR(lumped.availability, full.availability, 1e-14);
  EXPECT_NEAR(lumped.failure_frequency, full.failure_frequency, 1e-16);
  EXPECT_NEAR(lumped.mtbf_hours, full.mtbf_hours,
              full.mtbf_hours * 1e-12);
}

TEST(Lumping, MixedRewardBlocksAreRejected) {
  const Ctmc chain = symmetric_two_unit(0.1, 2.0);
  // Block mixing an up state with the dead state.
  EXPECT_THROW((void)lump(chain, {{0}, {1, 2, 3}}), std::invalid_argument);
}

TEST(Lumping, PartitionValidation) {
  const Ctmc chain = symmetric_two_unit(0.1, 2.0);
  EXPECT_THROW((void)is_lumpable(chain, {{0}, {1, 2}}),
               std::invalid_argument);  // missing state
  EXPECT_THROW((void)is_lumpable(chain, {{0, 0}, {1, 2}, {3}}),
               std::invalid_argument);  // duplicate
  EXPECT_THROW((void)is_lumpable(chain, {{0}, {1, 2}, {3, 9}}),
               std::invalid_argument);  // out of range
}

TEST(Lumping, CoarsestLumpingFindsTheSymmetry) {
  const Ctmc chain = symmetric_two_unit(0.1, 2.0);
  const Partition partition = coarsest_ordinary_lumping(chain);
  EXPECT_EQ(partition.size(), 3u);
  EXPECT_TRUE(is_lumpable(chain, partition));
  // The twin states share a block.
  for (const auto& block : partition) {
    if (block.size() == 2) {
      EXPECT_TRUE((block[0] == 1 && block[1] == 2) ||
                  (block[0] == 2 && block[1] == 1));
    }
  }
}

TEST(Lumping, CoarsestLumpingOnAsymmetricChainIsTrivial) {
  CtmcBuilder b;
  b.state("X", 1.0);
  b.state("Y", 1.0);
  b.state("Z", 0.0);
  b.rate(0, 1, 1.0).rate(1, 2, 2.0).rate(2, 0, 3.0).rate(0, 2, 0.5);
  const Partition partition = coarsest_ordinary_lumping(b.build());
  EXPECT_EQ(partition.size(), 3u);  // nothing to merge
}

// The headline check: the paper's Figure 3 chain is exactly the
// quotient of the node-identity-explicit model.
TEST(Lumping, ExplicitHadbPairLumpsToFigureThree) {
  const auto params = models::default_parameters();
  const Ctmc explicit_chain = check::hadb_pair_explicit_model(params);
  EXPECT_EQ(explicit_chain.num_states(), 10u);

  // With the paper's defaults RestartShort and Maintenance happen to
  // share their entire outgoing behaviour (1-minute completion, same
  // accelerated second-failure rate), so the coarsest ordinary
  // lumping legitimately merges them as well: 5 blocks, one coarser
  // than Figure 3.
  const Partition partition = coarsest_ordinary_lumping(explicit_chain);
  EXPECT_EQ(partition.size(), 5u);
  ASSERT_TRUE(is_lumpable(explicit_chain, partition));

  const Ctmc quotient = lump(explicit_chain, partition);
  const auto lumped = core::solve_availability(quotient);
  const auto figure3 = core::solve_availability(
      models::hadb_pair_model().bind(params));
  EXPECT_NEAR(lumped.unavailability, figure3.unavailability,
              figure3.unavailability * 1e-12);
  EXPECT_NEAR(lumped.failure_frequency, figure3.failure_frequency,
              figure3.failure_frequency * 1e-12);
}

TEST(Lumping, ExplicitHadbPairCoarsestIsFigureThreeWhenTimesDiffer) {
  // Perturb Tmnt so Maintenance is observably different from
  // RestartShort: the coarsest lumping is then exactly Figure 3's
  // six states, each block pairing the A/B twins.
  auto params = models::default_parameters();
  params.set("hadb_Tmnt", 2.0 / 60.0);
  const Ctmc explicit_chain = check::hadb_pair_explicit_model(params);
  const Partition partition = coarsest_ordinary_lumping(explicit_chain);
  EXPECT_EQ(partition.size(), 6u);
  ASSERT_TRUE(is_lumpable(explicit_chain, partition));

  const auto lumped =
      core::solve_availability(lump(explicit_chain, partition));
  const auto figure3 = core::solve_availability(
      models::hadb_pair_model().bind(params));
  EXPECT_NEAR(lumped.unavailability, figure3.unavailability,
              figure3.unavailability * 1e-12);
}

// Lumping is also why the counted-occupancy N-instance model is
// valid; spot-check the 10-state explicit pair against Figure 3 under
// several parameterizations.
TEST(Lumping, ExplicitPairMatchesFigureThreeAcrossParameters) {
  for (double fir : {0.0, 0.001, 0.002}) {
    for (double acc : {1.0, 2.0, 4.0}) {
      auto params = models::default_parameters();
      params.set("hadb_FIR", fir).set("Acc", acc);
      const auto full = core::solve_availability(
          check::hadb_pair_explicit_model(params));
      const auto figure3 = core::solve_availability(
          models::hadb_pair_model().bind(params));
      EXPECT_NEAR(full.unavailability, figure3.unavailability,
                  figure3.unavailability * 1e-12)
          << "fir=" << fir << " acc=" << acc;
    }
  }
}

}  // namespace
}  // namespace rascal::ctmc
