#include "check/ks_test.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.h"
#include "stats/special_functions.h"

namespace rascal::stats {
namespace {

using check::kolmogorov_survival;
using check::ks_test;

std::function<double(double)> exponential_cdf(double rate) {
  return [rate](double x) { return x < 0.0 ? 0.0 : -std::expm1(-rate * x); };
}

std::vector<double> exponential_draws(double rate, std::size_t n,
                                      std::uint64_t seed) {
  RandomEngine rng(seed);
  std::vector<double> out(n);
  for (double& x : out) x = rng.exponential(rate);
  return out;
}

TEST(Kolmogorov, SurvivalFunctionKnownValues) {
  EXPECT_DOUBLE_EQ(kolmogorov_survival(0.0), 1.0);
  // Critical value: Q(1.3581) ~ 0.05.
  EXPECT_NEAR(kolmogorov_survival(1.3581), 0.05, 0.001);
  EXPECT_NEAR(kolmogorov_survival(1.2238), 0.10, 0.001);
  EXPECT_LT(kolmogorov_survival(2.0), 0.001);
}

TEST(KsTest, AcceptsCorrectHypothesis) {
  const auto result = ks_test(exponential_draws(2.0, 5000, 1),
                              exponential_cdf(2.0));
  EXPECT_TRUE(result.accepts(0.01)) << "p=" << result.p_value;
  EXPECT_LT(result.statistic, 0.03);
}

TEST(KsTest, RejectsWrongRate) {
  const auto result = ks_test(exponential_draws(2.0, 5000, 2),
                              exponential_cdf(3.0));
  EXPECT_FALSE(result.accepts(0.01)) << "p=" << result.p_value;
}

TEST(KsTest, RejectsWrongFamily) {
  // U(0,1) draws against a normal with the same mean and variance.
  RandomEngine rng(3);
  std::vector<double> sample(8000);
  for (double& x : sample) x = rng.uniform01();
  const auto result = ks_test(std::move(sample), [](double x) {
    return standard_normal_cdf((x - 0.5) / 0.29);
  });
  EXPECT_FALSE(result.accepts(0.01));
}

TEST(KsTest, StatisticIsExactForTinySample) {
  // Single observation at the median: D = 0.5.
  const auto result =
      ks_test({0.5}, [](double x) { return x; });  // U(0,1) cdf
  EXPECT_DOUBLE_EQ(result.statistic, 0.5);
  EXPECT_EQ(result.sample_size, 1u);
}

TEST(KsTest, Validation) {
  EXPECT_THROW((void)ks_test({}, [](double) { return 0.5; }),
               std::invalid_argument);
  EXPECT_THROW((void)ks_test({1.0}, std::function<double(double)>{}),
               std::invalid_argument);
}

// The simulator's building blocks follow their claimed distributions.
TEST(KsTest, RngExponentialSamplesPassKs) {
  RandomEngine rng(4);
  std::vector<double> sample(4000);
  for (double& x : sample) x = rng.exponential(0.7);
  EXPECT_TRUE(ks_test(std::move(sample), exponential_cdf(0.7)).accepts(0.01));
}

}  // namespace
}  // namespace rascal::stats
