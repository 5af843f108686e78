#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/obs.h"

namespace rascal::core {

namespace {

std::size_t env_threads() {
  const char* text = std::getenv("RASCAL_THREADS");
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  return static_cast<std::size_t>(value);
}

// Flushes one worker's locally accumulated tally into the registry
// (once, when the worker retires — never per chunk).
void record_worker_telemetry(std::size_t worker, std::uint64_t tasks,
                             std::uint64_t busy_ns) {
  if (tasks == 0 || !obs::enabled()) return;
  obs::counter("core.pool.tasks").add(tasks);
  obs::counter("core.pool.busy_us").add(busy_ns / 1000);
  char name[64];
  std::snprintf(name, sizeof(name), "core.pool.worker.%zu.tasks", worker);
  obs::counter(name).add(tasks);
  std::snprintf(name, sizeof(name), "core.pool.worker.%zu.busy_us", worker);
  obs::counter(name).add(busy_ns / 1000);
}

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const std::size_t from_env = env_threads();
  if (from_env > 0) return from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t worker,
                                           std::size_t begin,
                                           std::size_t end)>& body) {
  if (count == 0) return;
  const std::size_t workers = resolve_threads(threads);
  if (workers == 1 || count == 1) {
    body(0, 0, count);
    return;
  }

  const obs::Span span("core.parallel_for");

  // Oversubscribe chunks 4x so uneven per-index costs still balance;
  // chunk boundaries never affect the result, only the schedule.
  const std::size_t chunks =
      std::min(count, std::max<std::size_t>(workers * 4, 1));
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  const std::size_t chunk_count = (count + chunk_size - 1) / chunk_size;
  if (obs::enabled()) {
    static obs::Counter& calls = obs::counter("core.parallel_for.calls");
    static obs::Counter& issued = obs::counter("core.parallel_for.chunks");
    static obs::Counter& pools = obs::counter("core.pool.instances");
    calls.add(1);
    issued.add(chunk_count);
    pools.add(1);
  }

  // Workers claim chunk indices from one counter; a chunk's bounds
  // depend only on its index.  Task and busy-time tallies stay local
  // to the worker until it retires, so instrumentation adds no
  // per-chunk synchronization.
  std::atomic<std::size_t> next_chunk{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&](std::size_t worker) {
    std::uint64_t tasks_run = 0;
    std::uint64_t busy_ns = 0;
    for (std::size_t c = next_chunk++; c < chunk_count; c = next_chunk++) {
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(count, begin + chunk_size);
      const bool timed = obs::enabled();
      const std::uint64_t start_ns = timed ? obs::wall_now_ns() : 0;
      try {
        body(worker, begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (timed) {
        ++tasks_run;
        busy_ns += obs::wall_now_ns() - start_ns;
      }
    }
    record_worker_telemetry(worker, tasks_run, busy_ns);
  };

  const std::size_t spawned = std::min(workers, chunk_count);
  std::vector<std::thread> pool;
  pool.reserve(spawned);
  try {
    for (std::size_t w = 0; w < spawned; ++w) pool.emplace_back(work, w);
  } catch (...) {
    for (std::thread& thread : pool) thread.join();
    throw;
  }
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rascal::core
