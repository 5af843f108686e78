// Umbrella header for the resilience layer: cooperative cancellation,
// append-only checkpoints, and the ExecutionControl bundle that threads
// both through the parallel sampling engines.
#pragma once

#include "resil/cancel.h"
#include "resil/checkpoint.h"

namespace rascal::resil {

/// Resilience knobs accepted by the long-running engines
/// (uncertainty_analysis, run_campaign, simulate_jsas), all three of
/// which honour them through one loop, core::resumable_for.  All
/// members are optional; a default-constructed control reproduces the
/// old all-or-nothing behavior exactly.
struct ExecutionControl {
  /// When set, polled at every index boundary (and inside iterative
  /// solvers / the event loop); the engine drains, flushes the
  /// checkpoint, and returns partial results marked interrupted.
  const CancellationToken* cancel = nullptr;

  /// When set, finished indices are recorded here, results and
  /// failures alike, and restored entries are replayed instead of
  /// recomputed (a recorded failure replays as a failure), making a
  /// resumed run bit-identical to an uninterrupted one.
  Checkpointer* checkpoint = nullptr;

  /// When true, a sample/trial whose solve fails is recorded as a
  /// structured failure and skipped instead of aborting the run.
  bool skip_failures = false;
};

}  // namespace rascal::resil
