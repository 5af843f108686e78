#include "stats/sampling.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace rascal::stats {

namespace {

void validate(const std::vector<ParameterRange>& ranges) {
  for (const ParameterRange& r : ranges) {
    if (!std::isfinite(r.lo) || !std::isfinite(r.hi)) {
      throw std::invalid_argument(
          "sampling: range '" + r.name +
          "' has a non-finite bound (NaN or infinity); every bound must "
          "be a finite number");
    }
    if (r.lo > r.hi) {
      throw std::invalid_argument(
          "sampling: range '" + r.name + "' is inverted (lo " +
          std::to_string(r.lo) + " > hi " + std::to_string(r.hi) + ")");
    }
  }
}

// The row-major array of `count` draws: validated ranges, and a size
// that does not wrap.
std::vector<double> draw_array(const std::vector<ParameterRange>& ranges,
                               std::size_t count) {
  validate(ranges);
  const std::size_t dims = ranges.size();
  if (dims != 0 && count > std::vector<double>().max_size() / dims) {
    throw std::length_error("sampling: " + std::to_string(count) +
                            " draws of " + std::to_string(dims) +
                            " parameters do not fit in memory");
  }
  return std::vector<double>(count * dims);
}

}  // namespace

std::vector<double> monte_carlo_samples(
    const std::vector<ParameterRange>& ranges, std::size_t count,
    RandomEngine& rng) {
  std::vector<double> samples = draw_array(ranges, count);
  std::size_t k = 0;
  for (std::size_t i = 0; i < count; ++i) {
    for (const ParameterRange& range : ranges) {
      samples[k++] = rng.uniform(range.lo, range.hi);
    }
  }
  return samples;
}

std::vector<double> latin_hypercube_samples(
    const std::vector<ParameterRange>& ranges, std::size_t count,
    RandomEngine& rng) {
  std::vector<double> samples = draw_array(ranges, count);
  if (count == 0) return samples;
  const std::size_t dims = ranges.size();
  std::vector<std::size_t> cells(count);
  for (std::size_t d = 0; d < ranges.size(); ++d) {
    std::iota(cells.begin(), cells.end(), std::size_t{0});
    std::shuffle(cells.begin(), cells.end(), rng.raw());
    const double width =
        (ranges[d].hi - ranges[d].lo) / static_cast<double>(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double offset = rng.uniform01();
      samples[i * dims + d] =
          ranges[d].lo + (static_cast<double>(cells[i]) + offset) * width;
    }
  }
  return samples;
}

}  // namespace rascal::stats
