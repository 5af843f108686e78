#include "stats/estimators.h"

#include <stdexcept>

#include "stats/special_functions.h"

namespace rascal::stats {

namespace {

void require_confidence(double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw std::invalid_argument("confidence must be in (0, 1)");
  }
}

}  // namespace

double coverage_lower_bound(std::uint64_t trials, std::uint64_t successes,
                            double confidence) {
  require_confidence(confidence);
  if (successes > trials) {
    throw std::invalid_argument("coverage_lower_bound: successes > trials");
  }
  if (successes == 0) {
    // Degenerate all-failures outcome: the one-sided Clopper-Pearson
    // lower bound is exactly 0 (and the FIR upper bound is 1), so a
    // campaign where every injection failed recovery still reports a
    // valid — vacuous — bound instead of aborting.
    return 0.0;
  }
  const double n = static_cast<double>(trials);
  const double s = static_cast<double>(successes);
  const double d1 = 2.0 * (n - s) + 2.0;
  const double d2 = 2.0 * s;
  const double f = fisher_f_quantile(d1, d2, confidence);
  return s / (s + (n - s + 1.0) * f);
}

double imperfect_recovery_upper_bound(std::uint64_t trials,
                                      std::uint64_t successes,
                                      double confidence) {
  return 1.0 - coverage_lower_bound(trials, successes, confidence);
}

double failure_rate_upper_bound(double total_exposure, std::uint64_t failures,
                                double confidence) {
  require_confidence(confidence);
  if (!(total_exposure > 0.0)) {
    throw std::invalid_argument(
        "failure_rate_upper_bound: exposure must be > 0");
  }
  const double dof = 2.0 * static_cast<double>(failures) + 2.0;
  return chi_square_quantile(dof, confidence) / (2.0 * total_exposure);
}

RateInterval failure_rate_interval(double total_exposure,
                                   std::uint64_t failures, double confidence) {
  require_confidence(confidence);
  if (!(total_exposure > 0.0)) {
    throw std::invalid_argument("failure_rate_interval: exposure must be > 0");
  }
  const double alpha = 1.0 - confidence;
  RateInterval interval;
  if (failures > 0) {
    interval.lower = chi_square_quantile(2.0 * static_cast<double>(failures),
                                         alpha / 2.0) /
                     (2.0 * total_exposure);
  }
  interval.upper =
      chi_square_quantile(2.0 * static_cast<double>(failures) + 2.0,
                          1.0 - alpha / 2.0) /
      (2.0 * total_exposure);
  return interval;
}

}  // namespace rascal::stats
