// Heap allocations of a warm steady-state solve.  A SolveCache lends
// one workspace to all of its solves, so once it is warm a GTH solve of
// a same-shaped chain allocates nothing but the distribution it
// returns.  This file replaces the global operator new to count
// allocations, so it is an executable of its own: the counter reaches
// no other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "ctmc/solve_cache.h"
#include "io/model_file.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Never inlined: inlined into a caller, the malloc/free inside would
// meet that caller's new/delete, and GCC's -Wmismatched-new-delete
// would pair them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}

[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace rascal {
namespace {

TEST(SolveAllocations, WarmSolveCacheGthSolveAllocatesAtMostOnce) {
  const io::ModelFile file = io::load_model(
      std::string(RASCAL_SOURCE_DIR) + "/examples/models/hadb_pair.rasc");
  const ctmc::Ctmc chain = file.bind();
  ctmc::SolveCache cache;
  (void)cache.steady_state(chain);  // sizes the workspace

  const std::size_t before = g_allocations.load();
  const ctmc::SteadyState& steady = cache.steady_state(chain);
  const std::size_t allocations = g_allocations.load() - before;

  EXPECT_LE(allocations, 1u);
  EXPECT_EQ(steady.effective_method, ctmc::SteadyStateMethod::kGth);
  EXPECT_EQ(steady.probabilities.size(), chain.num_states());
}

}  // namespace
}  // namespace rascal
