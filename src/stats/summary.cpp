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

void check_sample(std::span<const double> sample) {
  if (sample.empty()) {
    throw std::invalid_argument("percentile: empty sample");
  }
  if (std::ranges::any_of(sample, [](double x) { return std::isnan(x); })) {
    throw std::invalid_argument("percentile: NaN in the sample");
  }
}

// Type-7 percentile of a checked sample, which it reorders.
double select_percentile(std::span<double> values, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("percentile: p outside [0, 1]");
  }
  const double h = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at, values.end());
  const double below = *at;
  const double above =
      hi == lo ? below : *std::min_element(at + 1, values.end());
  return below + frac * (above - below);
}

}  // namespace

double percentile(std::vector<double> sample, double p) {
  check_sample(sample);
  return select_percentile(sample, p);
}

Interval select_interval(std::span<double> values, double level) {
  if (!(level > 0.0) || !(level < 1.0)) {
    throw std::invalid_argument("sample_interval: level outside (0, 1)");
  }
  check_sample(values);
  const double tail = 0.5 * (1.0 - level);
  return {select_percentile(values, tail),
          select_percentile(values, 1.0 - tail)};
}

Interval sample_interval(const std::vector<double>& sample, double level) {
  std::vector<double> scratch = sample;
  return select_interval(scratch, level);
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
