// Batch/serve execution: dispatch a stream of solve requests across
// the thread pool, share solved distributions through the concurrent
// solve cache, and emit one JSONL result record per request.
//
// The runner owns the full determinism contract of the serve mode:
// the sink bytes are identical at any RASCAL_THREADS, with a cold or
// warm cache, and across a kill/resume (checkpoint replay of exact
// result bits).  A malformed request line becomes a per-request error
// record, never a process abort.
//
// Every request is accounted for, exactly once: it ends as a result
// record ("ok", possibly with a "fallback" annotation), an error
// record (classified by the resil taxonomy), a shed record (refused
// by admission control), or — for a request a dead worker abandoned —
// a gap-filled error record from the sink.  The counts in BatchResult
// reconcile against the stream length, and the CLI turns any loss
// (gaps, lost, sink write failures) into exit 3.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ctmc/solve_cache.h"
#include "resil/resil.h"
#include "serve/supervise.h"

namespace rascal::serve {

struct BatchOptions {
  /// Worker threads (0 = RASCAL_THREADS / hardware default).
  std::size_t threads = 0;
  /// Shared solve-cache slots (0 disables the cache: every request
  /// solves).
  std::size_t cache_capacity = 1024;
  /// Cancellation / checkpoint / failure policy.  skip_failures is
  /// implied: a failing request always becomes an error record.
  resil::ExecutionControl control;
  /// Retry / admission configuration.
  SupervisionOptions supervision;
};

struct BatchResult {
  std::size_t requests = 0;
  std::size_t succeeded = 0;  // "status":"ok" records
  std::size_t failed = 0;     // "status":"error" records
  std::size_t shed = 0;       // "status":"shed" records (admission)
  std::size_t restored = 0;   // replayed from the checkpoint
  std::size_t written = 0;    // records the sink actually emitted
  std::size_t gaps = 0;       // gap-filled records at sink close
  std::size_t lost = 0;       // never completed though not interrupted
  std::size_t sink_write_failures = 0;  // records the stream refused
  bool interrupted = false;   // drained before finishing
  std::string interrupt_reason;
  /// Solve-cache statistics.
  ctmc::SharedSolveCache::Stats cache;
  /// Always 0: workers keep no cache of their own.  Kept only because
  /// the benchmark harness (e2ebench/workloads.cpp) still reads it.
  std::uint64_t worker_hits = 0;

  /// Fraction of solve lookups the cache answered.
  [[nodiscard]] double hit_rate() const noexcept;

  /// True when the stream lost records: a gap, a lost request, or a
  /// record the sink could not write.  Forces exit 3 in the CLI.
  [[nodiscard]] bool lossy() const noexcept {
    return gaps > 0 || lost > 0 || sink_write_failures > 0;
  }
};

/// Reads one request line per record, keeping blank lines (they
/// become error records) so request indices always equal input line
/// numbers minus one.  Trailing newline does not create a record.
[[nodiscard]] std::vector<std::string> read_request_lines(std::istream& in);

/// Fingerprint of the request stream *and* the supervision knobs that
/// change the output (retry bound, admission caps) for
/// checkpoint compatibility: resuming against a different stream or
/// different shedding rules is rejected.
[[nodiscard]] std::uint64_t batch_checkpoint_digest(
    const std::vector<std::string>& lines,
    const SupervisionOptions& supervision = {});

/// Runs every request and writes the result records to `out` in
/// request order.  Throws only on infrastructure failures (checkpoint
/// mismatch); per-request problems are error/shed records in the
/// stream.
BatchResult run_batch(const std::vector<std::string>& lines,
                      std::ostream& out, const BatchOptions& options);

}  // namespace rascal::serve
