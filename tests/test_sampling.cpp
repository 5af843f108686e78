#include "stats/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rascal::stats {
namespace {

const std::vector<ParameterRange> kRanges = {
    {"a", 0.0, 1.0}, {"b", 10.0, 20.0}, {"c", -5.0, 5.0}};

TEST(MonteCarlo, SamplesStayInRange) {
  RandomEngine rng(1);
  const auto samples = monte_carlo_samples(kRanges, 500, rng);
  ASSERT_EQ(samples.size(), 500u * 3);  // row major, 3 values per draw
  for (std::size_t i = 0; i < 500; ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_GE(samples[i * 3 + d], kRanges[d].lo);
      EXPECT_LE(samples[i * 3 + d], kRanges[d].hi);
    }
  }
}

TEST(MonteCarlo, MeanApproachesRangeMidpoint) {
  RandomEngine rng(2);
  const auto samples = monte_carlo_samples(kRanges, 20000, rng);
  double mean_b = 0.0;
  for (std::size_t i = 0; i < 20000; ++i) mean_b += samples[i * 3 + 1];
  mean_b /= 20000.0;
  EXPECT_NEAR(mean_b, 15.0, 0.1);
}

TEST(MonteCarlo, RejectsInvertedRange) {
  RandomEngine rng(3);
  EXPECT_THROW(
      (void)monte_carlo_samples({{"bad", 2.0, 1.0}}, 10, rng),
      std::invalid_argument);
}

TEST(LatinHypercube, OneSamplePerStratum) {
  RandomEngine rng(4);
  const std::size_t n = 100;
  const auto samples = latin_hypercube_samples(kRanges, n, rng);
  ASSERT_EQ(samples.size(), n * kRanges.size());
  // Each dimension: exactly one sample in each of the n equiprobable
  // cells — the defining LHS property.
  for (std::size_t d = 0; d < kRanges.size(); ++d) {
    std::vector<bool> cell_hit(n, false);
    const double width =
        (kRanges[d].hi - kRanges[d].lo) / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = samples[i * kRanges.size() + d];
      auto cell = static_cast<std::size_t>((x - kRanges[d].lo) / width);
      cell = std::min(cell, n - 1);
      EXPECT_FALSE(cell_hit[cell]) << "dimension " << d;
      cell_hit[cell] = true;
    }
  }
}

TEST(LatinHypercube, MarginalMeanIsTighterThanMonteCarlo) {
  // Variance-reduction property: the LHS marginal mean is closer to
  // the midpoint than plain MC at equal n (deterministic check with
  // fixed seeds).
  RandomEngine rng_mc(5);
  RandomEngine rng_lhs(5);
  const std::size_t n = 200;
  const std::vector<ParameterRange> one_range = {{"x", 0.0, 1.0}};
  const auto mc = monte_carlo_samples(one_range, n, rng_mc);
  const auto lhs = latin_hypercube_samples(one_range, n, rng_lhs);
  const auto mean_of = [](const std::vector<double>& samples) {
    double m = 0.0;
    for (const double x : samples) m += x;  // one range: one value a draw
    return m / static_cast<double>(samples.size());
  };
  EXPECT_LT(std::abs(mean_of(lhs) - 0.5), std::abs(mean_of(mc) - 0.5));
}

TEST(LatinHypercube, ZeroCountYieldsEmpty) {
  RandomEngine rng(6);
  EXPECT_TRUE(latin_hypercube_samples(kRanges, 0, rng).empty());
}

TEST(Sampling, DegenerateRangeIsConstant) {
  RandomEngine rng(7);
  const auto samples =
      monte_carlo_samples({{"fixed", 3.0, 3.0}}, 10, rng);
  ASSERT_EQ(samples.size(), 10u);
  for (const double x : samples) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(Sampling, FlatDrawsKeepThePerDrawStreamOrder) {
  // Draw i, dimension d is the (i * dims + d)-th uniform of the stream:
  // the order the samplers have always drawn in.
  RandomEngine rng(8);
  const auto samples = monte_carlo_samples(kRanges, 50, rng);
  RandomEngine replay(8);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t d = 0; d < kRanges.size(); ++d) {
      EXPECT_EQ(samples[i * kRanges.size() + d],
                replay.uniform(kRanges[d].lo, kRanges[d].hi));
    }
  }
}

TEST(Sampling, RejectsACountWhoseArrayWouldWrap) {
  RandomEngine rng(9);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW((void)monte_carlo_samples(kRanges, huge, rng),
               std::length_error);
  EXPECT_THROW((void)latin_hypercube_samples(kRanges, huge, rng),
               std::length_error);
}

}  // namespace
}  // namespace rascal::stats
