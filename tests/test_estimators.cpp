#include "stats/estimators.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/reference_twins.h"

namespace rascal::stats {
namespace {

using check::clopper_pearson;

// --- Equation (1): the paper's FIR bound -------------------------------

TEST(CoverageBound, PaperFirAt95Percent) {
  // 3,287 successful injections, zero failures: FIR < 0.1% at 95%.
  const double fir = imperfect_recovery_upper_bound(3287, 3287, 0.95);
  EXPECT_LT(fir, 0.001);
  EXPECT_GT(fir, 0.0008);  // the bound is close to 0.1%, not trivially small
}

TEST(CoverageBound, PaperFirAt995Percent) {
  // ... and below 0.2% at the 99.5% confidence level.
  const double fir = imperfect_recovery_upper_bound(3287, 3287, 0.995);
  EXPECT_LT(fir, 0.002);
  EXPECT_GT(fir, 0.0015);
}

TEST(CoverageBound, MoreTrialsTightenTheBound) {
  const double fir_small = imperfect_recovery_upper_bound(100, 100, 0.95);
  const double fir_large = imperfect_recovery_upper_bound(10000, 10000, 0.95);
  EXPECT_LT(fir_large, fir_small);
}

TEST(CoverageBound, HigherConfidenceLoosensTheBound) {
  const double c90 = coverage_lower_bound(1000, 1000, 0.90);
  const double c99 = coverage_lower_bound(1000, 1000, 0.99);
  EXPECT_GT(c90, c99);
}

TEST(CoverageBound, HandlesObservedFailures) {
  // With failures observed the bound must sit below s/n.
  const double c = coverage_lower_bound(1000, 990, 0.95);
  EXPECT_LT(c, 0.99);
  EXPECT_GT(c, 0.97);
}

TEST(CoverageBound, InputValidation) {
  EXPECT_THROW((void)coverage_lower_bound(10, 11, 0.95),
               std::invalid_argument);
  EXPECT_THROW((void)coverage_lower_bound(10, 10, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)coverage_lower_bound(10, 10, 0.0),
               std::invalid_argument);
}

// Regression: an all-failures campaign used to throw here, killing
// the report path for any run with zero successes.  The degenerate
// Clopper-Pearson bounds are 0 (coverage) and 1 (FIR).
TEST(CoverageBound, ZeroSuccessesGivesDegenerateBounds) {
  EXPECT_DOUBLE_EQ(coverage_lower_bound(10, 0, 0.95), 0.0);
  EXPECT_DOUBLE_EQ(coverage_lower_bound(3287, 0, 0.995), 0.0);
  EXPECT_DOUBLE_EQ(imperfect_recovery_upper_bound(10, 0, 0.95), 1.0);
  // Zero trials is the extreme no-information case: still bounded.
  EXPECT_DOUBLE_EQ(coverage_lower_bound(0, 0, 0.95), 0.0);
  EXPECT_DOUBLE_EQ(imperfect_recovery_upper_bound(0, 0, 0.95), 1.0);
}

TEST(ClopperPearson, MatchesFDistributionForm) {
  // The beta-quantile form and the F form are algebraically the same
  // lower bound at confidence 1 - alpha when using alpha (one-sided).
  const auto interval = clopper_pearson(3287, 3287, 0.90);  // alpha/2 = 0.05
  const double lower_f = coverage_lower_bound(3287, 3287, 0.95);
  EXPECT_NEAR(interval.lower, lower_f, 1e-10);
  EXPECT_DOUBLE_EQ(interval.upper, 1.0);
}

TEST(ClopperPearson, ZeroSuccessesGivesZeroLower) {
  const auto interval = clopper_pearson(50, 0, 0.95);
  EXPECT_DOUBLE_EQ(interval.lower, 0.0);
  EXPECT_GT(interval.upper, 0.0);
  EXPECT_LT(interval.upper, 0.12);
}

TEST(ClopperPearson, AllSuccessesGivesUnitUpper) {
  const auto interval = clopper_pearson(50, 50, 0.95);
  EXPECT_DOUBLE_EQ(interval.upper, 1.0);
  EXPECT_GT(interval.lower, 0.9);
  EXPECT_LT(interval.lower, 1.0);
}

// --- Equation (2): the paper's failure-rate bound -----------------------

TEST(FailureRateBound, Paper24DayTestAt95Percent) {
  // 24 days x 2 instances = 48 machine-days, 0 failures:
  // lambda_max = chi2_{0.95}(2) / (2 * 48) = 1/16 per day.
  const double lambda = failure_rate_upper_bound(48.0, 0, 0.95);
  EXPECT_NEAR(1.0 / lambda, 16.0, 0.05);
}

TEST(FailureRateBound, Paper24DayTestAt995Percent) {
  // ... and 1/9 per day at 99.5%.
  const double lambda = failure_rate_upper_bound(48.0, 0, 0.995);
  EXPECT_NEAR(1.0 / lambda, 9.06, 0.05);
}

TEST(FailureRateBound, ScalesInverselyWithExposure) {
  const double short_run = failure_rate_upper_bound(10.0, 0, 0.95);
  const double long_run = failure_rate_upper_bound(100.0, 0, 0.95);
  EXPECT_NEAR(short_run / long_run, 10.0, 1e-9);
}

TEST(FailureRateBound, MoreFailuresRaiseTheBound) {
  EXPECT_LT(failure_rate_upper_bound(100.0, 0, 0.95),
            failure_rate_upper_bound(100.0, 3, 0.95));
}

TEST(FailureRateBound, BoundExceedsMle) {
  const double mle = 5.0 / 100.0;  // n / T
  EXPECT_GT(failure_rate_upper_bound(100.0, 5, 0.95), mle);
}

TEST(FailureRateInterval, ContainsMleAndOrdersEndpoints) {
  const auto interval = failure_rate_interval(100.0, 5, 0.9);
  EXPECT_LT(interval.lower, 0.05);
  EXPECT_GT(interval.upper, 0.05);
}

TEST(FailureRateInterval, ZeroFailuresHasZeroLower) {
  const auto interval = failure_rate_interval(100.0, 0, 0.9);
  EXPECT_DOUBLE_EQ(interval.lower, 0.0);
  EXPECT_GT(interval.upper, 0.0);
}

TEST(FailureRate, InputValidation) {
  EXPECT_THROW((void)failure_rate_upper_bound(0.0, 0, 0.95),
               std::invalid_argument);
  EXPECT_THROW((void)failure_rate_upper_bound(10.0, 0, 0.0),
               std::invalid_argument);
}

// The paper's conservative choice: La = 52/year ("once a week") must
// exceed the 95% upper bound from the 24-day test (1/16 days ~ 22.8/yr).
TEST(FailureRateBound, PaperChoiceIsConservative) {
  const double bound_per_day = failure_rate_upper_bound(48.0, 0, 0.95);
  const double bound_per_year = bound_per_day * 365.25;
  EXPECT_GT(52.0, bound_per_year);
}

}  // namespace
}  // namespace rascal::stats
