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

TEST(Percentile, RejectsNaN) {
  // NaN has no place in the order, so no order statistic exists.
  const double nan = std::nan("");
  EXPECT_THROW((void)percentile({1.0, nan, 2.0}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)sample_interval({nan}, 0.8), std::invalid_argument);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Type-7 percentile from a full sort: the reference the selection
// must reproduce bit for bit.
double sorted_reference(std::vector<double> sample, double p) {
  std::sort(sample.begin(), sample.end());
  const double h = p * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

// Seeded samples of one value family.  None mixes -0.0 with +0.0: a
// sort orders those arbitrarily too, so their bounds have no single
// reference.
std::vector<double> family_sample(RandomEngine& rng, std::size_t n,
                                  int family) {
  std::vector<double> sample(n);
  for (double& x : sample) {
    switch (family) {
      case 0:  // continuous
        x = rng.uniform(-1e3, 1e3);
        break;
      case 1:  // heavy ties
        x = static_cast<double>(rng.uniform_index(3));
        break;
      case 2:  // denormals of both signs, and +0.0
        x = (static_cast<double>(rng.uniform_index(9)) - 4.0) * 4.9e-324;
        break;
      default:  // near +-1e300
        x = (rng.uniform_index(2) == 0 ? -1e300 : 1e300) *
            rng.uniform(0.5, 1.5);
        break;
    }
  }
  return sample;
}

TEST(OrderStatistics, SelectionIsBitEqualToTheSortedReference) {
  RandomEngine rng(0x5E1EC7);
  std::vector<std::vector<double>> samples;
  for (int family = 0; family < 4; ++family) {
    for (std::size_t n = 1; n <= 64; ++n) {
      samples.push_back(family_sample(rng, n, family));
    }
    std::vector<double> large = family_sample(rng, 50000, family);
    samples.push_back(large);
    std::sort(large.begin(), large.end());
    samples.push_back(large);  // sorted
    std::reverse(large.begin(), large.end());
    samples.push_back(large);  // reverse-sorted
  }
  for (const std::vector<double>& sample : samples) {
    // The engine's order: one scratch copy answers 0.8, then 0.9.
    std::vector<double> scratch = sample;
    for (const double level : {0.8, 0.9}) {
      const double tail = 0.5 * (1.0 - level);
      const double lower = sorted_reference(sample, tail);
      const double upper = sorted_reference(sample, 1.0 - tail);
      const Interval selected = select_interval(scratch, level);
      const Interval copied = sample_interval(sample, level);
      EXPECT_EQ(bits(selected.lower), bits(lower)) << sample.size();
      EXPECT_EQ(bits(selected.upper), bits(upper)) << sample.size();
      EXPECT_EQ(bits(copied.lower), bits(lower)) << sample.size();
      EXPECT_EQ(bits(copied.upper), bits(upper)) << sample.size();
    }
    for (int k = 0; k < 4; ++k) {
      const double p = k == 0 ? 0.0 : k == 1 ? 1.0 : rng.uniform01();
      EXPECT_EQ(bits(percentile(sample, p)), bits(sorted_reference(sample, p)))
          << sample.size() << " p " << p;
    }
  }
}

TEST(SampleInterval, OneScratchCopyGivesThePerBoundPercentileBits) {
  // Ties, one- and two-element samples: both bounds selected from one
  // scratch copy must carry the bits percentile() gives when it
  // selects from a fresh copy for every bound.  No sample mixes -0.0
  // and +0.0 (see family_sample).
  std::vector<std::vector<double>> samples = {
      {0.0}, {-0.0}, {3.5}, {-0.0, -0.0}, {0.0, 0.0}, {2.0, -1.0}, {1.0, 1.0}};
  RandomEngine rng(2024);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> sample(1 + rng.uniform_index(40));
    for (double& x : sample) {
      switch (rng.uniform_index(3)) {
        case 0: x = 0.0; break;
        case 1: x = static_cast<double>(rng.uniform_index(3)); break;
        default: x = rng.uniform(-1e3, 1e3); break;
      }
    }
    samples.push_back(std::move(sample));
  }
  for (const std::vector<double>& sample : samples) {
    std::vector<double> scratch = sample;
    for (const double level : {0.8, 0.9, 0.5, 0.999}) {
      const double tail = 0.5 * (1.0 - level);
      const double lower = percentile(sample, tail);
      const double upper = percentile(sample, 1.0 - tail);
      const Interval once = sample_interval(sample, level);
      const Interval shared = select_interval(scratch, level);
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
