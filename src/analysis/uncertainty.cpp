#include "analysis/uncertainty.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/resumable.h"
#include "obs/obs.h"
#include "stats/rng.h"

namespace rascal::analysis {

double UncertaintyResult::fraction_below(double threshold) const {
  return stats::fraction_below(metrics, threshold);
}

std::uint64_t uncertainty_checkpoint_digest(
    const UncertaintyOptions& options,
    const std::vector<stats::ParameterRange>& ranges) {
  resil::DigestBuilder digest;
  digest.add_str("uncertainty")
      .add_u64(options.seed)
      .add_u64(options.samples)
      .add_u64(options.latin_hypercube ? 1 : 0)
      // Probe the substream-derivation scheme itself: if it ever
      // changes, old checkpoints stop matching instead of replaying
      // bits that a fresh run would no longer produce.
      .add_u64(stats::RandomEngine(options.seed).substream_seed(0));
  digest.add_u64(ranges.size());
  for (const stats::ParameterRange& range : ranges) {
    digest.add_str(range.name).add_f64(range.lo).add_f64(range.hi);
  }
  return digest.value();
}

UncertaintyResult uncertainty_analysis(
    const ModelFunction& model, const expr::ParameterSet& base,
    const std::vector<stats::ParameterRange>& ranges,
    const UncertaintyOptions& options) {
  // The context path only threads extra scratch through; ignoring the
  // cache makes it evaluate the identical operation sequence.
  return uncertainty_analysis(
      ContextModelFunction(
          [&model](const expr::ParameterSet& params, ctmc::SolveCache&) {
            return model(params);
          }),
      base, ranges, options);
}

UncertaintyResult uncertainty_analysis(
    const ContextModelFunction& model, const expr::ParameterSet& base,
    const std::vector<stats::ParameterRange>& ranges,
    const UncertaintyOptions& options) {
  const obs::Span span("analysis.uncertainty");
  if (options.samples == 0) {
    throw std::invalid_argument("uncertainty_analysis: zero samples");
  }
  // Every draw comes from one serial RandomEngine(seed) stream, made
  // before the parallel region into one row-major array.
  stats::RandomEngine rng(options.seed);
  std::vector<double> draws =
      options.latin_hypercube
          ? stats::latin_hypercube_samples(ranges, options.samples, rng)
          : stats::monte_carlo_samples(ranges, options.samples, rng);
  const std::size_t n = options.samples;
  const std::size_t dims = ranges.size();

  // The draws are fixed before the parallel region, each model solve
  // depends only on its own draw, and every reduction below runs over
  // the index-ordered metrics — so neither the thread count nor a
  // resume can change any output bit.
  std::vector<double> metrics(n, 0.0);
  const core::ResumableRun run = core::resumable_for(
      n, options.threads, options.control,
      {.engine = "uncertainty_analysis",
       .progress = "uncertainty",
       .index_span = "analysis.uncertainty.sample",
       .failed_counter = "analysis.uncertainty.samples_failed",
       .make_worker =
           [&] {
             // Worker-local solver cache and parameter set.  Every draw
             // overrides every ranged parameter, so reusing the set
             // leaves exactly the bindings of a fresh copy of `base`
             // with this draw applied.
             return [&, cache = ctmc::SolveCache(),
                     params = base](std::size_t i) mutable {
               const double* draw = draws.data() + i * dims;
               for (std::size_t d = 0; d < dims; ++d) {
                 params.set(ranges[d].name, draw[d]);
               }
               const double metric = model(params, cache);
               // NaN has no place in the order the bounds select from.
               if (std::isnan(metric)) {
                 throw std::domain_error(
                     "uncertainty_analysis: the model returned NaN");
               }
               metrics[i] = metric;
             };
           },
       .restore =
           [&](std::size_t i, const std::vector<std::uint64_t>& words) {
             if (words.size() != 1) {
               throw resil::CheckpointError(
                   "uncertainty_analysis: checkpoint entry has wrong "
                   "payload size");
             }
             const double metric = resil::bits_f64(words[0]);
             if (std::isnan(metric)) {
               throw resil::CheckpointError(
                   "uncertainty_analysis: checkpoint entry holds a NaN "
                   "metric");
             }
             metrics[i] = metric;
           },
       .encode =
           [&](std::size_t i) {
             return std::vector<std::uint64_t>{resil::f64_bits(metrics[i])};
           }});
  if (obs::enabled()) {
    obs::counter("analysis.uncertainty.samples").add(n);
  }

  // Keep the successful rows in draw order by compacting both arrays
  // in place.  When every index succeeded no row moves, and both move
  // into the result without a copy.
  UncertaintyResult result;
  result.requested = n;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = draws.data() + i * dims;
    if (run.status[i] == core::IndexStatus::kOk) {
      if (kept != i) {
        std::copy_n(row, dims, draws.data() + kept * dims);
        metrics[kept] = metrics[i];
      }
      result.summary.add(metrics[kept]);
      ++kept;
    } else if (run.status[i] == core::IndexStatus::kFailed) {
      result.failures.push_back(
          {i, std::vector<double>(row, row + dims), run.errors[i]});
    }
  }
  draws.resize(kept * dims);
  metrics.resize(kept);
  result.draws = std::move(draws);
  result.metrics = std::move(metrics);
  result.completed = kept;
  result.interrupted = run.interrupted;
  result.interrupt_reason = run.interrupt_reason;
  if (kept != 0) {
    result.mean = result.summary.mean();
    // One scratch copy answers all four bounds, by selection.
    std::vector<double> scratch = result.metrics;
    result.interval80 = stats::select_interval(scratch, 0.8);
    result.interval90 = stats::select_interval(scratch, 0.9);
  }
  return result;
}

}  // namespace rascal::analysis
