// One-sample Kolmogorov-Smirnov goodness-of-fit test.
//
// Used by the test suite to verify that simulator outputs follow the
// distributions they claim (exponential holding times, lognormal
// recovery times) — the same check one would run on real lab
// measurements before fitting model parameters.
#pragma once

#include <functional>
#include <vector>

namespace rascal::check {

struct KsResult {
  double statistic = 0.0;  // sup |F_n(x) - F(x)|
  double p_value = 1.0;    // asymptotic (Kolmogorov distribution)
  std::size_t sample_size = 0;

  /// True when the hypothesis "sample ~ F" survives at significance
  /// alpha (i.e. p_value >= alpha).
  [[nodiscard]] bool accepts(double alpha = 0.05) const noexcept {
    return p_value >= alpha;
  }
};

/// KS test of `sample` against the CDF `cdf`.  Throws
/// std::invalid_argument on an empty sample.
[[nodiscard]] KsResult ks_test(std::vector<double> sample,
                               const std::function<double(double)>& cdf);

/// Asymptotic Kolmogorov distribution survival function:
/// P(sqrt(n) D_n > x) for large n.
[[nodiscard]] double kolmogorov_survival(double x);

}  // namespace rascal::check
