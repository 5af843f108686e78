#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/special_functions.h"

namespace rascal::stats {

void Summary::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double Summary::standard_error() const noexcept {
  if (count_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {

// Type-7 percentile of an ascending sample.
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile: empty sample");
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("percentile: p outside [0, 1]");
  }
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double percentile(std::vector<double> sample, double p) {
  std::sort(sample.begin(), sample.end());
  return sorted_percentile(sample, p);
}

Interval sorted_interval(const std::vector<double>& sorted, double level) {
  if (!(level > 0.0) || !(level < 1.0)) {
    throw std::invalid_argument("sample_interval: level outside (0, 1)");
  }
  const double tail = 0.5 * (1.0 - level);
  return {sorted_percentile(sorted, tail),
          sorted_percentile(sorted, 1.0 - tail)};
}

Interval sample_interval(const std::vector<double>& sample, double level) {
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  return sorted_interval(sorted, level);
}

Interval mean_confidence_interval(const Summary& summary, double level) {
  if (!(level > 0.0) || !(level < 1.0)) {
    throw std::invalid_argument(
        "mean_confidence_interval: level outside (0, 1)");
  }
  const double z = standard_normal_quantile(0.5 + level / 2.0);
  const double half_width = z * summary.standard_error();
  return {summary.mean() - half_width, summary.mean() + half_width};
}

double fraction_below(const std::vector<double>& sample, double threshold) {
  if (sample.empty()) {
    throw std::invalid_argument("fraction_below: empty sample");
  }
  const auto below = std::count_if(sample.begin(), sample.end(),
                                   [&](double x) { return x < threshold; });
  return static_cast<double>(below) / static_cast<double>(sample.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi) || bins == 0) {
    throw std::invalid_argument("Histogram: requires lo < hi and bins > 0");
  }
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::size_t>((x - lo_) / width);
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

std::size_t Histogram::count(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::count");
  return counts_[bin];
}

double Histogram::bin_lower(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_lower");
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + static_cast<double>(bin) * width;
}

double Histogram::bin_upper(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_upper");
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + static_cast<double>(bin + 1) * width;
}

}  // namespace rascal::stats
