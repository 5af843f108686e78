#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/resumable.h"
#include "resil/chaos.h"
#include "scoped_env.h"

namespace rascal::core {
namespace {

TEST(ResolveThreads, ExplicitRequestWins) {
  ASSERT_EQ(setenv("RASCAL_THREADS", "3", 1), 0);
  EXPECT_EQ(resolve_threads(5), 5u);
  unsetenv("RASCAL_THREADS");
}

TEST(ResolveThreads, EnvSuppliesTheAutomaticDefault) {
  ASSERT_EQ(setenv("RASCAL_THREADS", "3", 1), 0);
  EXPECT_EQ(resolve_threads(0), 3u);
  ASSERT_EQ(setenv("RASCAL_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(resolve_threads(0), 1u);  // garbage ignored, falls back
  unsetenv("RASCAL_THREADS");
}

TEST(ResolveThreads, FallsBackToHardwareConcurrency) {
  unsetenv("RASCAL_THREADS");
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}}) {
    std::vector<int> touched(1000, 0);
    parallel_for(touched.size(), threads,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) ++touched[i];
                 });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 1000)
        << threads;
    for (int t : touched) EXPECT_EQ(t, 1);
  }
}

TEST(ParallelFor, ZeroThreadsMeansAutomatic) {
  // threads = 0 resolves through RASCAL_THREADS, as every other thread
  // count in the library does: both indices must be inside the body at
  // once.  Run inline, the first call would wait out the timeout.
  const ScopedEnv threads("RASCAL_THREADS", "3");
  std::mutex mutex;
  std::condition_variable arrived;
  int inside = 0;
  int timed_out = 0;
  parallel_for(2, 0, [&](std::size_t, std::size_t, std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++inside;
    arrived.notify_all();
    if (!arrived.wait_for(lock, std::chrono::seconds(10),
                          [&] { return inside >= 2; })) {
      ++timed_out;
    }
  });
  EXPECT_EQ(inside, 2);
  EXPECT_EQ(timed_out, 0);
}

TEST(ParallelFor, EmptyRangeNeverCallsTheBody) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t, std::size_t begin, std::size_t end) {
                     if (begin < end) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, WorkerIndexNamesOneThreadAtATime) {
  // State kept per worker index is safe only if the index is in range
  // and no two chunks that run at the same time carry the same one.
  for (const std::size_t count : {std::size_t{3}, std::size_t{1000}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{3}, std::size_t{8}}) {
      const auto busy = std::make_unique<std::atomic<int>[]>(threads);
      std::atomic<int> out_of_range{0};
      std::atomic<int> shared{0};
      std::vector<int> touched(count, 0);
      parallel_for(count, threads,
                   [&](std::size_t worker, std::size_t begin,
                       std::size_t end) {
                     if (worker >= std::min(threads, count)) {
                       ++out_of_range;
                       return;
                     }
                     if (busy[worker].fetch_add(1) != 0) ++shared;
                     for (std::size_t i = begin; i < end; ++i) ++touched[i];
                     std::this_thread::yield();
                     busy[worker].fetch_sub(1);
                   });
      EXPECT_EQ(out_of_range.load(), 0) << count << " " << threads;
      EXPECT_EQ(shared.load(), 0) << count << " " << threads;
      for (const int t : touched) EXPECT_EQ(t, 1);
    }
  }
}

TEST(ParallelMap, ResultIsIndexOrderedForAnyThreadCount) {
  const auto square = [](std::size_t i) {
    return static_cast<double>(i) * static_cast<double>(i);
  };
  const auto serial = parallel_map(257, 1, square);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = parallel_map(257, threads, square);
    EXPECT_EQ(parallel, serial) << threads;
  }
}

// Runs 1000 indices that each read and write their worker's scratch,
// and counts the workers built.
struct CountedRun {
  std::size_t built = 0;
  std::vector<std::uint64_t> bits;  // each index's result
  std::vector<IndexStatus> status;
};

CountedRun counted_run(std::size_t threads, bool skip_failures) {
  constexpr std::size_t kCount = 1000;
  std::atomic<std::size_t> built{0};
  CountedRun out;
  out.bits.assign(kCount, 0);
  resil::ExecutionControl control;
  control.skip_failures = skip_failures;
  ResumableRun run = resumable_for(
      kCount, threads, control,
      {.engine = "test",
       .progress = "test",
       .index_span = "test.index",
       .failed_counter = "test.failed",
       .make_worker =
           [&] {
             ++built;
             return [&, scratch = std::vector<double>(4, 1.0)](
                        std::size_t i) mutable {
               // The result depends on the index alone, however much
               // scratch the worker reused before it.
               scratch[i % 4] = std::sqrt(static_cast<double>(i));
               out.bits[i] = std::bit_cast<std::uint64_t>(scratch[i % 4]);
             };
           },
       .restore = [](std::size_t, const std::vector<std::uint64_t>&) {},
       .encode = [](std::size_t) { return std::vector<std::uint64_t>{}; }});
  out.built = built.load();
  out.status = std::move(run.status);
  return out;
}

TEST(ResumableFor, WorkerStateIsBuiltOncePerWorker) {
  struct ChaosGuard {
    ~ChaosGuard() { resil::chaos::configure(""); }
  } guard;
  const CountedRun serial = counted_run(1, false);
  EXPECT_EQ(serial.built, 1u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const CountedRun run = counted_run(threads, false);
    EXPECT_GE(run.built, 1u);
    EXPECT_LE(run.built, threads);
    EXPECT_EQ(run.bits, serial.bits) << threads;
    EXPECT_EQ(run.status, serial.status) << threads;
  }

  // A failed index rebuilds its worker once; every other index keeps
  // the one-thread bits.
  resil::chaos::configure("worker-throw@500");
  const CountedRun faulted_serial = counted_run(1, true);
  EXPECT_EQ(faulted_serial.built, 2u);
  ASSERT_EQ(faulted_serial.status[500], IndexStatus::kFailed);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const CountedRun run = counted_run(threads, true);
    EXPECT_GE(run.built, 2u);
    EXPECT_LE(run.built, threads + 1);
    EXPECT_EQ(run.status, faulted_serial.status) << threads;
    for (std::size_t i = 0; i < run.bits.size(); ++i) {
      if (i != 500) {
        EXPECT_EQ(run.bits[i], serial.bits[i]) << i;
      }
    }
  }
}

}  // namespace
}  // namespace rascal::core
