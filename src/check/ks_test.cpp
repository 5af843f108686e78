#include "check/ks_test.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rascal::check {

double kolmogorov_survival(double x) {
  if (x <= 0.0) return 1.0;
  // Q(x) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2); converges fast.
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * x * x);
    sum += (k % 2 == 1 ? term : -term);
    if (term < 1e-16) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsResult ks_test(std::vector<double> sample,
                 const std::function<double(double)>& cdf) {
  if (sample.empty()) {
    throw std::invalid_argument("ks_test: empty sample");
  }
  if (!cdf) {
    throw std::invalid_argument("ks_test: null cdf");
  }
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double f = cdf(sample[i]);
    const double below = static_cast<double>(i) / n;
    const double above = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - below), std::abs(above - f)});
  }
  KsResult result;
  result.statistic = d;
  result.sample_size = sample.size();
  // Asymptotic p-value with the standard small-sample correction
  // sqrt(n) -> sqrt(n) + 0.12 + 0.11/sqrt(n).
  const double sqrt_n = std::sqrt(n);
  result.p_value =
      kolmogorov_survival((sqrt_n + 0.12 + 0.11 / sqrt_n) * d);
  return result;
}

}  // namespace rascal::check
