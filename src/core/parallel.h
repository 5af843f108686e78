// Deterministic parallel-execution layer.
//
// Chunked parallel_for / parallel_map primitives used by every
// embarrassingly parallel sampling loop in the library (uncertainty
// analysis, parametric sweeps, the fault-injection campaign, simulator
// replications).  Each call starts its own workers and joins them
// before it returns.
//
// Determinism contract: the primitives only decide *where* an index
// runs, never *what* it computes.  Callers draw per-index randomness
// from RandomEngine::split(index) substreams, or draw every index
// serially before the parallel region, and write results into
// index-addressed slots, so any thread count — including 1 — produces
// bit-identical output.  Per-worker state (indexed by the body's
// `worker` argument) may only hold what no result depends on: caches
// whose hits equal fresh computations, reusable scratch.  Reductions
// that are sensitive to floating point ordering must be performed
// over the index-ordered results after the parallel region, not
// inside it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace rascal::core {

/// Resolves a requested thread count to the count actually used:
///   requested >  0 -> requested (explicit request wins);
///   requested == 0 -> the RASCAL_THREADS environment variable when it
///                     parses to a positive integer, otherwise
///                     std::thread::hardware_concurrency() (min 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// Runs `body(worker, begin, end)` over a chunked partition of
/// [0, count) using `threads` workers (callers resolve an automatic
/// count with resolve_threads first).  Chunks are contiguous, cover
/// each index exactly once, and depend only on `count` and `threads`;
/// the call starts up to `threads` threads that claim chunks in index
/// order from one atomic counter, and joins them before it returns.
/// `worker` names the thread that runs the chunk: it is below both
/// `threads` and `count`, and one worker runs its chunks one after
/// another.  So state that a caller keeps per worker index (a solver
/// cache, a parameter set) is built once per worker per call and is
/// never used by two chunks at a time; bodies that keep no state ignore
/// the index.  With threads <= 1 (or count <= 1) the body runs inline
/// on the calling thread as worker 0.  The first exception thrown by
/// any chunk is rethrown on the caller after all workers finish; the
/// worker that threw goes on claiming chunks.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t worker,
                                           std::size_t begin,
                                           std::size_t end)>& body);

/// results[i] = fn(i) for i in [0, count), computed on `threads`
/// workers.  The result vector is index-ordered and independent of the
/// thread count.  The element type must be default-constructible.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t count, std::size_t threads,
                                Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(count);
  parallel_for(count, threads,
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
               });
  return out;
}

}  // namespace rascal::core
