#include "analysis/uncertainty.h"

#include <stdexcept>

#include "core/thread_pool.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "resil/chaos.h"
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
  stats::RandomEngine rng(options.seed);
  const std::vector<stats::Sample> draws =
      options.latin_hypercube
          ? stats::latin_hypercube_samples(ranges, options.samples, rng)
          : stats::monte_carlo_samples(ranges, options.samples, rng);
  const std::size_t n = draws.size();

  const resil::CancellationToken* cancel = options.control.cancel;
  resil::Checkpointer* checkpoint = options.control.checkpoint;
  const bool skip_failures = options.control.skip_failures;

  // Per-index completion state: 0 = pending, 1 = solved, 2 = failed.
  // Restored checkpoint entries are replayed into these slots before
  // the parallel region; workers skip any non-pending index, so a
  // resumed run recomputes exactly the indices an uninterrupted run
  // would have produced (the draws above regenerate identically from
  // the seed).
  std::vector<double> metrics(n, 0.0);
  std::vector<unsigned char> status(n, 0);
  std::vector<std::string> errors(n);
  if (checkpoint != nullptr) {
    if (checkpoint->total() != n) {
      throw resil::CheckpointError(
          "uncertainty_analysis: checkpoint total does not match the "
          "sample count");
    }
    for (const resil::CheckpointEntry& entry : checkpoint->entries()) {
      const std::size_t i = static_cast<std::size_t>(entry.index);
      if (entry.status == resil::EntryStatus::kOk) {
        if (entry.words.size() != 1) {
          throw resil::CheckpointError(
              "uncertainty_analysis: checkpoint entry has wrong payload "
              "size");
        }
        metrics[i] = resil::bits_f64(entry.words[0]);
        status[i] = 1;
      } else {
        status[i] = 2;
        errors[i] = entry.note;
      }
    }
  }

  // The draws are fixed before the parallel region, each model solve
  // depends only on its own draw, and every reduction below runs over
  // the index-ordered metrics — so the thread count cannot change any
  // output bit.
  // Telemetry (spans, progress ticks) only reads clocks and atomics,
  // never the RNG, so instrumented runs stay on the same draw stream.
  obs::Progress progress("uncertainty", n);
  core::parallel_for(
      n, core::resolve_threads(options.threads),
      [&](std::size_t begin, std::size_t end) {
        // Chunk-local = worker-local: the solver cache and the
        // parameter set are set up once per chunk.  Every draw
        // overrides every ranged parameter, so reusing the set leaves
        // exactly the bindings of a fresh copy of `base` with this
        // draw applied.
        ctmc::SolveCache cache;
        expr::ParameterSet params = base;
        for (std::size_t i = begin; i < end; ++i) {
          if (status[i] != 0) continue;  // restored from checkpoint
          if (cancel != nullptr && cancel->cancelled()) return;  // drain
          try {
            resil::chaos::worker_hook(i);
            const obs::Span sample_span("analysis.uncertainty.sample");
            for (std::size_t d = 0; d < ranges.size(); ++d) {
              params.set(ranges[d].name, draws[i][d]);
            }
            metrics[i] = model(params, cache);
            status[i] = 1;
            if (checkpoint != nullptr) {
              checkpoint->record({i, resil::EntryStatus::kOk,
                                  {resil::f64_bits(metrics[i])}, {}});
            }
          } catch (const resil::CancelledError&) {
            return;  // interrupted mid-solve: leave index pending
          } catch (const std::exception& failure) {
            if (!skip_failures) throw;
            status[i] = 2;
            errors[i] = failure.what();
            if (checkpoint != nullptr) {
              checkpoint->record({i, resil::EntryStatus::kFailed, {},
                                  failure.what()});
            }
            if (obs::enabled()) {
              obs::counter("analysis.uncertainty.samples_failed").add(1);
            }
          }
          progress.tick();
        }
      });
  progress.finish();
  if (checkpoint != nullptr) checkpoint->flush();
  if (obs::enabled()) {
    obs::counter("analysis.uncertainty.samples").add(n);
  }

  UncertaintyResult result;
  result.requested = n;
  result.samples.reserve(n);
  result.metrics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == 1) {
      result.samples.push_back({draws[i], metrics[i]});
      result.metrics.push_back(metrics[i]);
      result.summary.add(metrics[i]);
    } else if (status[i] == 2) {
      result.failures.push_back({i, draws[i], errors[i]});
    }
  }
  result.completed = result.metrics.size();
  result.interrupted =
      cancel != nullptr && cancel->cancelled() &&
      result.completed + result.failures.size() < n;
  if (result.interrupted) result.interrupt_reason = cancel->describe();
  if (!result.metrics.empty()) {
    result.mean = result.summary.mean();
    result.interval80 = stats::sample_interval(result.metrics, 0.8);
    result.interval90 = stats::sample_interval(result.metrics, 0.9);
  }
  return result;
}

}  // namespace rascal::analysis
