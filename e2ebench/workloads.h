// The benchmark workloads.  Each drives the library entry points that
// `rascal_cli uncertainty`, `batch` and `campaign` call, with the same
// options, and splits a run into the CLI's set-up and the engine call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace e2ebench {

/// Worker threads of the `throughput` metric (the 1-thread baseline
/// is `throughput_1t`).
inline constexpr std::size_t kThreads = 4;

/// One engine call, timed around the call only.
struct EngineRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;        // process user+sys during the call
  std::size_t items = 0;     // samples, requests or trials attempted
  std::size_t failed = 0;    // dropped, error, shed or lost items
  std::uint64_t fingerprint = 0;  // hash of every output bit
};

/// Per-layer metric values by name (see README.md for the catalogue).
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Does what rascal_cli does before the engine call (load and lint
  /// the model, read the request stream, open the checkpoint) and
  /// returns the wall seconds that part took.
  virtual double setup() = 0;

  /// One engine call at `threads` workers, untraced.
  virtual EngineRun run(std::size_t threads) = 0;

  /// One engine call with the benchmark's own per-layer timers around
  /// the library calls; accumulates what layer_metrics() reports.
  virtual EngineRun traced_run(std::size_t threads) = 0;

  /// Receives the obs snapshot of an engine call made with a
  /// TraceSession open (for library counters such as checkpoint
  /// flushes).
  virtual void observe(const rascal::obs::Snapshot& /*snapshot*/) {}

  /// Per-layer metrics from the traced runs plus the workload's own
  /// replays.  Throws std::runtime_error when a replay disagrees with
  /// the engine's output.
  virtual LayerMetrics layer_metrics() = 0;

  /// Output checks beyond run-to-run bit identity; "" when all pass.
  virtual std::string check() = 0;
};

/// The input file a workload generates from `seed` (the k-of-n .rasc
/// or the JSONL request stream); "" for workloads without one.
[[nodiscard]] std::string workload_input(const std::string& name,
                                         std::uint64_t seed);

/// Generates the workload's inputs from `seed` under `work_dir` and
/// returns it, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, const std::string& work_dir);

}  // namespace e2ebench
