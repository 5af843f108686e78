// Heap allocations of a warm steady-state solve.  A SolveCache lends
// one workspace to all of its solves, so once it is warm a GTH solve of
// a same-shaped chain allocates nothing but the distribution it
// returns, and a Krylov solve of another draw of the same compiled
// model reuses the workspace's Krylov plan and allocates little more.  This file replaces the global operator new to count
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

TEST(SolveAllocations, WarmKrylovPlanSolveAllocatesAlmostNothing) {
  // The lumped 2-of-3 k-of-n tier, forced onto the sparse path: GMRES
  // with ILU(0).  A solve that rebuilt the CSR generator, its
  // transpose and the ILU(0) factors took 16 allocations here; the
  // plan leaves the returned distribution, plus at most one basis
  // vector if this draw needs one more GMRES iteration than the first.
  const io::ModelFile file = io::load_model(
      std::string(RASCAL_SOURCE_DIR) + "/examples/models/kofn_as_2of3.rasc");
  const ctmc::Ctmc first = file.bind();
  const ctmc::Ctmc second = file.bind({{"La", 0.03}, {"C", 0.85}});
  ASSERT_NE(first.pattern_id(), 0u);
  ASSERT_EQ(second.pattern_id(), first.pattern_id());
  ctmc::SolveControl control;
  control.sparse_threshold = 1;
  ctmc::SolveCache cache;
  (void)cache.steady_state(first, ctmc::SteadyStateMethod::kGth,
                           ctmc::Validation::kOn, control);

  const std::size_t before = g_allocations.load();
  const ctmc::SteadyState& steady = cache.steady_state(
      second, ctmc::SteadyStateMethod::kGth, ctmc::Validation::kOn, control);
  const std::size_t allocations = g_allocations.load() - before;

  EXPECT_LE(allocations, 2u);
  EXPECT_EQ(steady.effective_method, ctmc::SteadyStateMethod::kGmres);
  EXPECT_GT(steady.iterations, 0u);
  EXPECT_EQ(steady.probabilities.size(), second.num_states());
}

}  // namespace
}  // namespace rascal
