#include "analysis/sensitivity.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/parallel.h"

namespace rascal::analysis {

std::vector<TornadoBar> tornado_analysis(
    const ModelFunction& model, const expr::ParameterSet& base,
    const std::vector<stats::ParameterRange>& ranges,
    std::size_t threads) {
  std::vector<TornadoBar> bars = core::parallel_map(
      ranges.size(), threads, [&](std::size_t i) {
        const stats::ParameterRange& range = ranges[i];
        expr::ParameterSet lo = base;
        expr::ParameterSet hi = base;
        lo.set(range.name, range.lo);
        hi.set(range.name, range.hi);
        return TornadoBar{range.name, model(lo), model(hi)};
      });
  std::sort(bars.begin(), bars.end(),
            [](const TornadoBar& a, const TornadoBar& b) {
              return a.swing() > b.swing();
            });
  return bars;
}

namespace {

// Average ranks, with ties sharing the mean rank.
std::vector<double> ranks(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> r(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double mean_rank =
        0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = mean_rank;
    i = j + 1;
  }
  return r;
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const auto n = static_cast<double>(xs.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

double spearman_rank_correlation(const std::vector<double>& xs,
                                 const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("spearman: length mismatch");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("spearman: need at least 2 observations");
  }
  return pearson(ranks(xs), ranks(ys));
}

std::vector<ParameterImportance> parameter_importance(
    const UncertaintyResult& result,
    const std::vector<stats::ParameterRange>& ranges) {
  const std::size_t dims = ranges.size();
  const std::size_t n = result.metrics.size();
  if (result.draws.size() != n * dims) {
    throw std::invalid_argument(
        "parameter_importance: the result's draws do not hold one value "
        "per range and metric");
  }
  std::vector<ParameterImportance> out;
  out.reserve(dims);
  std::vector<double> xs(n);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t k = 0; k < n; ++k) xs[k] = result.draws[k * dims + d];
    out.push_back(
        {ranges[d].name, spearman_rank_correlation(xs, result.metrics)});
  }
  std::sort(out.begin(), out.end(),
            [](const ParameterImportance& a, const ParameterImportance& b) {
              return std::abs(a.rank_correlation) >
                     std::abs(b.rank_correlation);
            });
  return out;
}

}  // namespace rascal::analysis
