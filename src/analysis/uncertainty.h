// Uncertainty analysis (paper Section 7, Figures 7 and 8).
//
// Parameters that cannot be measured accurately in bounded lab time —
// failure rates, customer-controlled recovery times, the imperfect
// recovery fraction — are sampled from stated ranges; the model is
// solved once per virtual "customer system"; and the output metric is
// summarized by its mean and symmetric sample intervals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/parametric.h"
#include "resil/resil.h"
#include "stats/sampling.h"
#include "stats/summary.h"

namespace rascal::analysis {

struct UncertaintyOptions {
  std::size_t samples = 1000;  // paper uses 1,000 snapshots
  std::uint64_t seed = 2004;   // reproducible by default
  bool latin_hypercube = false;
  // Worker threads for the per-sample model solves: 0 = automatic
  // (RASCAL_THREADS env, else hardware_concurrency).  All draws are
  // generated up front and metrics are accumulated in draw order, so
  // every thread count returns bit-identical results.  threads != 1
  // requires `model` to be safe to call concurrently.
  std::size_t threads = 1;
  // Resilience: cancellation, checkpoint/resume, skip-failed-samples.
  // Excluded from the checkpoint digest (resume may legally change
  // thread count or control settings).
  resil::ExecutionControl control;
};

struct UncertaintySample {
  stats::Sample parameters;  // aligned with the ranges
  double metric = 0.0;
};

/// A sample whose model solve threw (recorded under
/// ExecutionControl::skip_failures instead of aborting the run).
struct SampleFailure {
  std::size_t index = 0;
  stats::Sample parameters;  // the draw that failed, for reproduction
  std::string error;
};

struct UncertaintyResult {
  std::vector<UncertaintySample> samples;  // successful solves only
  std::vector<double> metrics;  // convenience copy, in draw order
  double mean = 0.0;
  stats::Interval interval80;
  stats::Interval interval90;
  stats::Summary summary;

  std::vector<SampleFailure> failures;  // dropped samples, in draw order
  std::size_t requested = 0;            // draws asked for
  std::size_t completed = 0;            // == samples.size()
  bool interrupted = false;             // cancelled with work pending
  std::string interrupt_reason;         // cancel token's describe()

  /// Fraction of sampled systems whose metric is below `threshold`
  /// (e.g. yearly downtime under 5.25 min = five-9s availability).
  [[nodiscard]] double fraction_below(double threshold) const;
};

/// Fingerprint of everything that determines the draw stream and
/// result bits (seed, sample count, sampler, ranges, and the RNG
/// substream-derivation scheme — NOT the thread count).  Used as the
/// checkpoint digest so a resume under different settings is rejected.
[[nodiscard]] std::uint64_t uncertainty_checkpoint_digest(
    const UncertaintyOptions& options,
    const std::vector<stats::ParameterRange>& ranges);

/// Runs the analysis: each draw overrides `base` with sampled values
/// for every range, then evaluates `model`.
[[nodiscard]] UncertaintyResult uncertainty_analysis(
    const ModelFunction& model, const expr::ParameterSet& base,
    const std::vector<stats::ParameterRange>& ranges,
    const UncertaintyOptions& options = {});

/// Context-aware overload (the hot path): each worker chunk owns one
/// SolveCache and one parameter-set copy of `base`, so a thousand
/// samples perform O(workers) solver allocations instead of
/// O(samples).  Metrics are bit-identical to the plain overload at any
/// thread count (oracle-gated).
[[nodiscard]] UncertaintyResult uncertainty_analysis(
    const ContextModelFunction& model, const expr::ParameterSet& base,
    const std::vector<stats::ParameterRange>& ranges,
    const UncertaintyOptions& options = {});

}  // namespace rascal::analysis
