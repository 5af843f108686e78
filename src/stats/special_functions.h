// Special functions underpinning the estimators: regularized
// incomplete gamma and beta functions and their inverses, the
// chi-square and F quantiles built on them (the paper's Eq. 1 and
// Eq. 2), plus the standard-normal quantile.  Implementations follow
// the classic series / continued-fraction expansions (Abramowitz &
// Stegun 6.5, 26.5; Lentz's algorithm for the continued fractions).
#pragma once

namespace rascal::stats {

/// log Gamma(x) for x > 0.
[[nodiscard]] double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a),
/// for a > 0, x >= 0.  Throws std::domain_error outside the domain.
[[nodiscard]] double regularized_gamma_p(double a, double x);

/// Inverse of P(a, .): returns x with P(a, x) = p, for p in [0, 1).
[[nodiscard]] double inverse_regularized_gamma_p(double a, double p);

/// Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].
[[nodiscard]] double regularized_beta(double a, double b, double x);

/// Inverse of I_.(a, b): returns x with I_x(a, b) = p.
[[nodiscard]] double inverse_regularized_beta(double a, double b, double p);

/// Standard normal CDF.
[[nodiscard]] double standard_normal_cdf(double x);

/// Standard normal quantile (inverse CDF) for p in (0, 1).
/// Acklam's rational approximation refined with one Halley step.
[[nodiscard]] double standard_normal_quantile(double p);

/// Chi-square quantile: x with P(chi2(dof) <= x) = p.  Throws
/// std::invalid_argument for dof <= 0 and std::domain_error for p
/// outside (0, 1).
[[nodiscard]] double chi_square_quantile(double dof, double p);

/// Fisher F(d1, d2) quantile, +infinity where the beta inverse
/// saturates at 1.  Throws std::invalid_argument for d1 <= 0 or
/// d2 <= 0 and std::domain_error for p outside (0, 1).
[[nodiscard]] double fisher_f_quantile(double d1, double d2, double p);

}  // namespace rascal::stats
