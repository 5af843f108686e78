// Heap allocations of a warm steady-state solve, and of the uncertainty
// and batch calls around it.  A SolveCache lends one workspace to all
// of its solves, so once it is warm a GTH solve of a same-shaped chain
// allocates nothing but the distribution it returns, and a Krylov solve
// of another draw of the same compiled model reuses the workspace's
// Krylov plan and allocates little more.  Around the solves, an
// uncertainty call allocates per call, never per draw, and a batch call
// keeps no block that grows by more than a pointer per request.  This
// file replaces the global operator new to count allocations, so it is
// an executable of its own: the counter reaches no other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/uncertainty.h"
#include "ctmc/solve_cache.h"
#include "io/model_file.h"
#include "serve/batch.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  // largest block asked for

}  // namespace

// Never inlined: inlined into a caller, the malloc/free inside would
// meet that caller's new/delete, and GCC's -Wmismatched-new-delete
// would pair them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
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

TEST(SolveAllocations, UncertaintyCallAllocatesNothingPerDraw) {
  // With a model function that allocates nothing, the draws, the
  // metrics, the worker state and the bounds cost the same number of
  // allocations at 2,000 samples as at 1,000.
  const analysis::ModelFunction model = [](const expr::ParameterSet& p) {
    return 2.0 * p.get("x") + p.get("y");
  };
  const expr::ParameterSet base{{"x", 1.0}, {"y", 2.0}};
  const std::vector<stats::ParameterRange> ranges = {{"x", 0.0, 1.0},
                                                     {"y", 1.0, 3.0}};
  const auto allocations_at = [&](std::size_t samples) {
    analysis::UncertaintyOptions options;
    options.samples = samples;
    options.threads = 1;
    const std::size_t before = g_allocations.load();
    const analysis::UncertaintyResult result =
        analysis::uncertainty_analysis(model, base, ranges, options);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_EQ(result.completed, samples);
    return allocations;
  };
  (void)allocations_at(10);  // first-call statics
  EXPECT_EQ(allocations_at(2000), allocations_at(1000));
}

TEST(SolveAllocations, BatchCallKeepsNoArrayOfRequests) {
  // run_batch parses every request before its workers start.  Each
  // parsed request is its own allocation and each record is rendered
  // when it is decided, so 4,000 more requests grow the call's largest
  // block by a pointer each (8 bytes), not by a Request (176 bytes): a
  // block of megabytes has to find a hole that large in the caller's
  // heap, and whether it does varies from one run to the next.
  struct Discard final : std::streambuf {
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      return n;
    }
  };
  const std::string line =
      std::string(R"({"model": ")") + RASCAL_SOURCE_DIR +
      R"(/examples/models/hadb_pair.rasc", "set": {"FIR": 0.001}})";
  const auto largest_at = [&](std::size_t requests) {
    const std::vector<std::string> lines(requests, line);
    Discard discard;
    std::ostream out(&discard);
    serve::BatchOptions options;
    options.threads = 1;
    g_largest.store(0);
    const serve::BatchResult result = serve::run_batch(lines, out, options);
    EXPECT_EQ(result.succeeded, requests);
    return g_largest.load();
  };
  const std::size_t at_4000 = largest_at(4000);
  EXPECT_LE(largest_at(8000), at_4000 + 4000 * 16);
}

}  // namespace
}  // namespace rascal
