// Parameter estimators used in Section 5 of the paper:
//
//  * Equation (1): lower confidence bound on a coverage probability
//    C = 1 - FIR from s successes in n fault-injection trials, via the
//    F-distribution form of the Clopper-Pearson bound.
//  * Equation (2): upper confidence bound on a failure rate from n
//    failures observed in total exposure time T, via the chi-square
//    distribution.
//
// Both handle the zero-failure case that dominated the paper's
// measurements (3,287 successful injections; 24 days without failure).
#pragma once

#include <cstdint>
#include <vector>

namespace rascal::stats {

/// Equation (1).  Lower bound on the success (coverage) probability at
/// the given confidence level:
///
///   C_low = s / (s + (n - s + 1) * F_{1-alpha}(2(n-s)+2, 2s))
///
/// `trials` = n, `successes` = s, confidence = 1 - alpha.  s == 0
/// yields the degenerate-but-correct bound 0 (and the companion FIR
/// upper bound 1), matching the Clopper-Pearson convention.  Throws
/// std::invalid_argument for s > n or confidence outside (0, 1).
[[nodiscard]] double coverage_lower_bound(std::uint64_t trials,
                                          std::uint64_t successes,
                                          double confidence);

/// Convenience: upper bound on FIR = 1 - C at the given confidence.
[[nodiscard]] double imperfect_recovery_upper_bound(std::uint64_t trials,
                                                    std::uint64_t successes,
                                                    double confidence);

/// Equation (2).  Upper bound on an exponential failure rate given n
/// observed failures over total (time-on-test) exposure T:
///
///   lambda_max = chi2_{1-alpha}(2n + 2) / (2 T)
///
/// Units of T determine units of the returned rate.  Throws
/// std::invalid_argument for T <= 0 or confidence outside (0, 1).
[[nodiscard]] double failure_rate_upper_bound(double total_exposure,
                                              std::uint64_t failures,
                                              double confidence);

/// Two-sided chi-square confidence interval for a failure rate
/// (time-censored test): [chi2_{a/2}(2n)/2T, chi2_{1-a/2}(2n+2)/2T].
struct RateInterval {
  double lower = 0.0;
  double upper = 0.0;
};
[[nodiscard]] RateInterval failure_rate_interval(double total_exposure,
                                                 std::uint64_t failures,
                                                 double confidence);

}  // namespace rascal::stats
