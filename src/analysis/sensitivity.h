// Local and global sensitivity analysis.
//
//  * tornado_analysis: metric at each range endpoint, holding the
//    remaining parameters at base values — ranks which uncertain
//    parameter moves the output most.
//  * spearman / parameter_importance: rank correlation between sampled
//    parameter values and the output metric across an uncertainty
//    run — a global importance measure.
#pragma once

#include <string>
#include <vector>

#include "analysis/parametric.h"
#include "analysis/uncertainty.h"
#include "stats/sampling.h"

namespace rascal::analysis {

struct TornadoBar {
  std::string parameter;
  double metric_at_lo = 0.0;
  double metric_at_hi = 0.0;
  [[nodiscard]] double swing() const noexcept {
    const double d = metric_at_hi - metric_at_lo;
    return d < 0.0 ? -d : d;
  }
};

/// One bar per range, sorted by descending swing.  `threads` workers
/// evaluate the endpoint pairs (0 = automatic); bars are assembled in
/// range order before sorting, so any thread count returns identical
/// bars.  threads != 1 requires a concurrency-safe `model`.
[[nodiscard]] std::vector<TornadoBar> tornado_analysis(
    const ModelFunction& model, const expr::ParameterSet& base,
    const std::vector<stats::ParameterRange>& ranges,
    std::size_t threads = 1);

/// Spearman rank correlation coefficient between two equal-length
/// samples.  Throws std::invalid_argument on mismatch or length < 2.
[[nodiscard]] double spearman_rank_correlation(const std::vector<double>& xs,
                                               const std::vector<double>& ys);

struct ParameterImportance {
  std::string parameter;
  double rank_correlation = 0.0;
};

/// Spearman correlation of each sampled parameter against the metric,
/// from an uncertainty_analysis result; sorted by descending |rho|.
[[nodiscard]] std::vector<ParameterImportance> parameter_importance(
    const UncertaintyResult& result,
    const std::vector<stats::ParameterRange>& ranges);

}  // namespace rascal::analysis
