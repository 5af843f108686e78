#include "core/parallel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

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
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) ++touched[i];
                 });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 1000)
        << threads;
    for (int t : touched) EXPECT_EQ(t, 1);
  }
}

TEST(ParallelFor, EmptyRangeNeverCallsTheBody) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t begin, std::size_t end) {
                     if (begin < end) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
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

}  // namespace
}  // namespace rascal::core
