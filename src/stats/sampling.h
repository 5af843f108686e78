// Design-of-experiments sampling over parameter hyper-rectangles, as
// used by the paper's uncertainty analysis (Section 7): each of N
// virtual "customer systems" draws every uncertain parameter uniformly
// from its stated range.  Latin hypercube sampling is provided as a
// variance-reduction alternative (ablated in bench_sampling).
//
// Both samplers return one flat row-major array: draw i is the
// ranges.size() values at [i * ranges.size(), (i + 1) * ranges.size()),
// aligned with the ranges.  One allocation holds every draw.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace rascal::stats {

/// A uniformly distributed uncertain parameter.
struct ParameterRange {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
};

/// Independent uniform sampling: `count` draws over the ranges, row
/// major.  Throws std::invalid_argument when a range has lo > hi or a
/// non-finite (NaN/infinite) bound, and std::length_error when
/// count x ranges.size() values cannot be held.
[[nodiscard]] std::vector<double> monte_carlo_samples(
    const std::vector<ParameterRange>& ranges, std::size_t count,
    RandomEngine& rng);

/// Latin hypercube sampling: each dimension is stratified into `count`
/// equiprobable cells, one draw per cell, with cell order shuffled per
/// dimension.  Marginals cover each range far more evenly than plain
/// Monte Carlo at the same sample count.  Row major, as above.
[[nodiscard]] std::vector<double> latin_hypercube_samples(
    const std::vector<ParameterRange>& ranges, std::size_t count,
    RandomEngine& rng);

}  // namespace rascal::stats
