// Descriptive statistics: streaming summary accumulator, percentiles,
// confidence intervals for a mean, and fixed-width histograms.  Used
// to post-process uncertainty-analysis and simulation outputs
// (Figures 7 and 8 of the paper).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rascal::stats {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Summary {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double standard_error() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile with linear interpolation between order statistics
/// (type-7, the numpy/R default).  `p` in [0, 1].  Throws
/// std::invalid_argument on an empty sample, a NaN in it (NaN has no
/// place in the order), or p outside [0, 1].  The input is copied and
/// the two order statistics are found by selection (see
/// select_interval).
[[nodiscard]] double percentile(std::vector<double> sample, double p);

/// Symmetric sample interval: returns {percentile((1-level)/2),
/// percentile(1-(1-level)/2)} — e.g. level = 0.8 gives the (10%, 90%)
/// interval used for the paper's "80% confidence interval".  Copies
/// the sample once for both bounds.
struct Interval {
  double lower = 0.0;
  double upper = 0.0;
};
[[nodiscard]] Interval sample_interval(const std::vector<double>& sample,
                                       double level);

/// sample_interval() computed in place, by selection instead of a
/// sort: for each bound, std::nth_element puts the floor(h)-th order
/// statistic in place and the ceil(h)-th is the least value to its
/// right.  These are the two values a sort puts there, so the bits are
/// a sort's, at O(n) instead of O(n log n).  Reorders `values` but
/// keeps them as a multiset, so one scratch copy answers several
/// levels.  Throws as sample_interval() does.
[[nodiscard]] Interval select_interval(std::span<double> values,
                                       double level);

/// Normal-approximation confidence interval for the mean.
[[nodiscard]] Interval mean_confidence_interval(const Summary& summary,
                                                double level);

/// Fraction of observations strictly below the threshold.
[[nodiscard]] double fraction_below(const std::vector<double>& sample,
                                    double threshold);

/// Fixed-width histogram over [lo, hi); samples outside the range are
/// counted in underflow/overflow.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] double bin_lower(std::size_t bin) const;
  [[nodiscard]] double bin_upper(std::size_t bin) const;
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace rascal::stats
