#include "stats/special_functions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace rascal::stats {
namespace {

TEST(LogGamma, MatchesFactorials) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(M_PI)), 1e-12);
  EXPECT_THROW((void)log_gamma(0.0), std::domain_error);
}

TEST(IncompleteGamma, BoundaryValues) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 700.0), 1.0, 1e-12);
}

TEST(IncompleteGamma, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-13);
  }
}

TEST(IncompleteGamma, InverseRoundTrips) {
  for (double a : {0.5, 1.0, 3.0, 12.0}) {
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.995}) {
      const double x = inverse_regularized_gamma_p(a, p);
      EXPECT_NEAR(regularized_gamma_p(a, x), p, 1e-10)
          << "a=" << a << " p=" << p;
    }
  }
}

TEST(IncompleteGamma, DomainChecks) {
  EXPECT_THROW((void)regularized_gamma_p(-1.0, 1.0), std::domain_error);
  EXPECT_THROW((void)regularized_gamma_p(1.0, -1.0), std::domain_error);
  EXPECT_THROW((void)inverse_regularized_gamma_p(1.0, 1.0),
               std::domain_error);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1, 1) = x (uniform CDF).
  for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_NEAR(regularized_beta(1.0, 1.0, x), x, 1e-13);
  }
  // I_x(2, 1) = x^2.
  EXPECT_NEAR(regularized_beta(2.0, 1.0, 0.3), 0.09, 1e-13);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(regularized_beta(3.0, 5.0, 0.4),
              1.0 - regularized_beta(5.0, 3.0, 0.6), 1e-13);
}

TEST(IncompleteBeta, InverseRoundTrips) {
  for (double a : {0.5, 2.0, 7.0}) {
    for (double b : {1.0, 3.0, 9.0}) {
      for (double p : {0.05, 0.5, 0.95}) {
        const double x = inverse_regularized_beta(a, b, p);
        EXPECT_NEAR(regularized_beta(a, b, x), p, 1e-10);
      }
    }
  }
}

TEST(IncompleteBeta, DomainChecks) {
  EXPECT_THROW((void)regularized_beta(0.0, 1.0, 0.5), std::domain_error);
  EXPECT_THROW((void)regularized_beta(1.0, 1.0, 1.5), std::domain_error);
}

TEST(StandardNormal, CdfKnownValues) {
  EXPECT_NEAR(standard_normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(standard_normal_cdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(standard_normal_cdf(-1.959963984540054), 0.025, 1e-12);
}

TEST(StandardNormal, QuantileInvertsCdf) {
  for (double p : {1e-10, 0.001, 0.025, 0.5, 0.8, 0.975, 0.9999}) {
    EXPECT_NEAR(standard_normal_cdf(standard_normal_quantile(p)), p,
                1e-12 + p * 1e-12);
  }
}

TEST(StandardNormal, QuantileSymmetry) {
  for (double p : {0.01, 0.1, 0.3}) {
    EXPECT_NEAR(standard_normal_quantile(p),
                -standard_normal_quantile(1.0 - p), 1e-9);
  }
}

TEST(StandardNormal, QuantileDomainChecks) {
  EXPECT_THROW((void)standard_normal_quantile(0.0), std::domain_error);
  EXPECT_THROW((void)standard_normal_quantile(1.0), std::domain_error);
}

TEST(ChiSquare, PaperEquation2Quantiles) {
  // Values used by the paper's Equation (2) with 0 failures:
  // chi2_{0.95}(2) = 5.991, chi2_{0.995}(2) = 10.597.
  EXPECT_NEAR(chi_square_quantile(2.0, 0.95), 5.99146, 1e-4);
  EXPECT_NEAR(chi_square_quantile(2.0, 0.995), 10.59663, 1e-4);
}

TEST(ChiSquare, QuantileDomainChecks) {
  EXPECT_THROW((void)chi_square_quantile(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)chi_square_quantile(2.0, 0.0), std::domain_error);
  EXPECT_THROW((void)chi_square_quantile(2.0, 1.0), std::domain_error);
}

TEST(FisherF, LargeD2ApproachesScaledChiSquare) {
  // F(d1, inf) -> chi2(d1)/d1.
  EXPECT_NEAR(fisher_f_quantile(2.0, 1e7, 0.95), 5.99146 / 2.0, 1e-3);
}

TEST(FisherF, QuantileDomainChecks) {
  EXPECT_THROW((void)fisher_f_quantile(0.0, 2.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)fisher_f_quantile(2.0, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)fisher_f_quantile(2.0, 2.0, 0.0), std::domain_error);
  EXPECT_THROW((void)fisher_f_quantile(2.0, 2.0, 1.0), std::domain_error);
}

}  // namespace
}  // namespace rascal::stats
