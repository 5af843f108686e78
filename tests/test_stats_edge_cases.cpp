// Edge-of-domain tests for the stats layer: KS at the smallest legal
// sample sizes and independence of nested RandomEngine::split
// substreams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/ks_test.h"
#include "stats/rng.h"

namespace rascal::stats {
namespace {

using check::ks_test;

double uniform01_cdf(double x) { return std::clamp(x, 0.0, 1.0); }

// ---- KS at tiny sample sizes ------------------------------------------

TEST(KsEdge, EmptySampleIsRejectedUpFront) {
  EXPECT_THROW((void)ks_test({}, uniform01_cdf), std::invalid_argument);
}

TEST(KsEdge, SingleObservationHasExactStatistic) {
  // With one observation x, D_1 = max(F(x), 1 - F(x)).
  const auto result = ks_test({0.25}, uniform01_cdf);
  EXPECT_EQ(result.sample_size, 1u);
  EXPECT_NEAR(result.statistic, 0.75, 1e-12);
  EXPECT_GE(result.p_value, 0.0);
  EXPECT_LE(result.p_value, 1.0);
  // A perfectly central observation gives the smallest possible D_1.
  EXPECT_NEAR(ks_test({0.5}, uniform01_cdf).statistic, 0.5, 1e-12);
}

TEST(KsEdge, TwoObservationsMatchHandComputedStatistic) {
  // Sorted sample {0.1, 0.9} vs U(0,1): sup deviation at the first
  // point is max over steps |i/n - F|, |F - (i-1)/n| = 0.4 both sides.
  const auto result = ks_test({0.9, 0.1}, uniform01_cdf);
  EXPECT_EQ(result.sample_size, 2u);
  EXPECT_NEAR(result.statistic, 0.4, 1e-12);
}

TEST(KsEdge, TinySampleDoesNotSpuriouslyReject) {
  // n = 1..4 has almost no power; the test must stay conservative
  // rather than reject a correct hypothesis.
  RandomEngine rng(7);
  const auto exponential_cdf = [](double x) { return -std::expm1(-2.0 * x); };
  for (std::size_t n = 1; n <= 4; ++n) {
    std::vector<double> sample;
    for (std::size_t i = 0; i < n; ++i) {
      sample.push_back(rng.exponential(2.0));
    }
    EXPECT_TRUE(ks_test(sample, exponential_cdf).accepts(0.01)) << "n=" << n;
  }
}

TEST(KsEdge, DegenerateConstantSampleRejectsContinuousModel) {
  const std::vector<double> constant(200, 3.0);
  EXPECT_FALSE(ks_test(constant, [](double x) {
                 return std::clamp(x / 10.0, 0.0, 1.0);
               }).accepts(0.05));
}

// ---- nested split independence ----------------------------------------

TEST(SplitEdge, NestedSubstreamsPassPairwiseKs) {
  // split(a).split(b) lattices must behave as independent uniform
  // streams: each passes KS against U(0,1), and no two distinct
  // substreams are correlated or identical.
  RandomEngine root(0xDEC0DE);
  const std::size_t kStreams = 4, kDraws = 400;
  std::vector<std::vector<double>> streams;
  for (std::uint64_t a = 0; a < 2; ++a) {
    for (std::uint64_t b = 0; b < 2; ++b) {
      RandomEngine leaf = root.split(a).split(b);
      std::vector<double> draws;
      for (std::size_t i = 0; i < kDraws; ++i) draws.push_back(leaf.uniform01());
      streams.push_back(std::move(draws));
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_TRUE(ks_test(streams[s], uniform01_cdf).accepts(0.001))
        << "substream " << s << " is not uniform";
  }
  for (std::size_t a = 0; a < kStreams; ++a) {
    for (std::size_t b = a + 1; b < kStreams; ++b) {
      double corr = 0.0;
      std::size_t identical = 0;
      for (std::size_t i = 0; i < kDraws; ++i) {
        corr += (streams[a][i] - 0.5) * (streams[b][i] - 0.5);
        identical += streams[a][i] == streams[b][i] ? 1 : 0;
      }
      corr /= static_cast<double>(kDraws) / 12.0;  // Var U(0,1) = 1/12
      EXPECT_LT(std::abs(corr), 0.2) << "streams " << a << "," << b;
      EXPECT_LT(identical, kDraws / 100) << "streams " << a << "," << b;
    }
  }
}

TEST(SplitEdge, SiblingAndChildStreamsDiffer) {
  // The substream reached by split(0).split(1) must differ from
  // split(1).split(0) and from split(0) itself — collisions here are
  // exactly what would silently correlate parallel replications.
  RandomEngine root(42);
  RandomEngine a = root.split(0).split(1);
  RandomEngine b = root.split(1).split(0);
  RandomEngine c = root.split(0);
  bool a_vs_b = false, a_vs_c = false;
  for (int i = 0; i < 16; ++i) {
    const double xa = a.uniform01(), xb = b.uniform01(), xc = c.uniform01();
    a_vs_b |= xa != xb;
    a_vs_c |= xa != xc;
  }
  EXPECT_TRUE(a_vs_b);
  EXPECT_TRUE(a_vs_c);
}

TEST(SplitEdge, SplitIsStableUnderParentConsumption) {
  // split is const and keyed on (state, stream_id): drawing from the
  // parent must not change what a later split(id) yields, or results
  // would depend on evaluation order across threads.
  RandomEngine parent(99);
  RandomEngine before = parent.split(5);
  for (int i = 0; i < 100; ++i) (void)parent.uniform01();
  RandomEngine after = parent.split(5);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(before.uniform01(), after.uniform01());
  }
}

}  // namespace
}  // namespace rascal::stats
