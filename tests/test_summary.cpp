#include "stats/summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "stats/rng.h"

namespace rascal::stats {
namespace {

TEST(Summary, TracksMomentsAndExtremes) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, SingleObservationHasZeroVariance) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.standard_error(), 0.0);
}

TEST(Summary, StandardErrorShrinksWithN) {
  Summary a;
  Summary b;
  for (int i = 0; i < 100; ++i) a.add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 10000; ++i) b.add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(a.standard_error(), b.standard_error());
}

TEST(Percentile, InterpolatesType7) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(sample, 1.0 / 3.0), 2.0);
}

TEST(Percentile, UnsortedInputIsHandled) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

TEST(Percentile, Validation) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(SampleInterval, EightyPercentCoversMiddle) {
  std::vector<double> sample;
  for (int i = 1; i <= 1000; ++i) sample.push_back(static_cast<double>(i));
  const Interval ci = sample_interval(sample, 0.8);
  EXPECT_NEAR(ci.lower, 100.0, 1.5);
  EXPECT_NEAR(ci.upper, 900.0, 1.5);
}

TEST(SampleInterval, OneSortGivesThePerBoundPercentileBits) {
  // Ties, signed zeros and one- and two-element samples: bounds read
  // from one sorted copy must carry the bits percentile() gives when
  // it sorts a fresh copy for every bound.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<std::vector<double>> samples = {
      {0.0}, {-0.0}, {3.5}, {-0.0, 0.0}, {0.0, -0.0}, {2.0, -1.0}, {1.0, 1.0}};
  RandomEngine rng(2024);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> sample(1 + rng.uniform_index(40));
    for (double& x : sample) {
      switch (rng.uniform_index(4)) {
        case 0: x = 0.0; break;
        case 1: x = -0.0; break;
        case 2: x = static_cast<double>(rng.uniform_index(3)); break;
        default: x = rng.uniform(-1e3, 1e3); break;
      }
    }
    samples.push_back(std::move(sample));
  }
  for (const std::vector<double>& sample : samples) {
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    for (const double level : {0.8, 0.9, 0.5, 0.999}) {
      const double tail = 0.5 * (1.0 - level);
      const double lower = percentile(sample, tail);
      const double upper = percentile(sample, 1.0 - tail);
      const Interval once = sample_interval(sample, level);
      const Interval shared = sorted_interval(sorted, level);
      EXPECT_EQ(bits(once.lower), bits(lower));
      EXPECT_EQ(bits(once.upper), bits(upper));
      EXPECT_EQ(bits(shared.lower), bits(lower));
      EXPECT_EQ(bits(shared.upper), bits(upper));
    }
  }
}

TEST(MeanConfidenceInterval, IsSymmetricAroundMean) {
  Summary s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i % 10));
  const Interval ci = mean_confidence_interval(s, 0.95);
  EXPECT_NEAR(0.5 * (ci.lower + ci.upper), s.mean(), 1e-12);
  EXPECT_LT(ci.lower, s.mean());
}

TEST(FractionBelow, CountsStrictly) {
  EXPECT_DOUBLE_EQ(fraction_below({1.0, 2.0, 3.0, 4.0}, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below({1.0, 2.0}, 10.0), 1.0);
  EXPECT_THROW((void)fraction_below({}, 1.0), std::invalid_argument);
}

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // underflow
  h.add(0.0);    // bin 0
  h.add(3.999);  // bin 1
  h.add(4.0);    // bin 2
  h.add(10.0);   // overflow (hi is exclusive)
  h.add(42.0);   // overflow
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(1), 4.0);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW((void)h.count(2), std::out_of_range);
}

}  // namespace
}  // namespace rascal::stats
