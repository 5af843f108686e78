// One resumable, cancellable index loop for the sampling engines
// (uncertainty_analysis, run_campaign, simulate_jsas), on parallel_for.
// It owns checkpoint replay (a recorded result is decoded into its
// slot, a recorded failure stays a failure), worker state (built per
// chunk and again after a failed index), the cancel drain, the chaos
// hook, each index's span, checkpoint record and progress tick,
// skipping or rethrowing failures, the final flush and the interrupted
// flag.  Each engine keeps its draws, its per-index body, its payload
// encode/decode and its index-ordered reduction, so every thread count
// and every resumed run returns the same bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resil/resil.h"

namespace rascal::core {

enum class IndexStatus : unsigned char { kPending, kOk, kFailed };

/// Computes one index into the engine's own index-addressed slot.
using IndexBody = std::function<void(std::size_t index)>;

/// One engine's side of the loop.
struct ResumableTask {
  const char* engine;          // prefixes checkpoint errors
  const char* progress;        // obs::Progress label
  const char* index_span;      // span around each index
  const char* failed_counter;  // indices skipped as failures
  /// A fresh worker, owning the state its indices reuse.
  std::function<IndexBody()> make_worker;
  /// Decodes a recorded payload into slot `index`; throws
  /// resil::CheckpointError when the words are not a valid payload.
  std::function<void(std::size_t index,
                     const std::vector<std::uint64_t>& words)>
      restore;
  /// Encodes slot `index` for the checkpoint (called only with one).
  std::function<std::vector<std::uint64_t>(std::size_t index)> encode;
};

struct ResumableRun {
  std::vector<IndexStatus> status;  // one per index
  std::vector<std::string> errors;  // the failure of each kFailed index
  bool interrupted = false;         // cancelled with indices pending
  std::string interrupt_reason;     // the cancel token's describe()
};

/// Runs `task` over [0, count) on `threads` workers (resolved per
/// resolve_threads) under `control`.  Without skip_failures the first
/// failure is rethrown once every worker has finished, and the final
/// flush is skipped.
[[nodiscard]] ResumableRun resumable_for(
    std::size_t count, std::size_t threads,
    const resil::ExecutionControl& control, const ResumableTask& task);

}  // namespace rascal::core
