// Bit-identity property tests for the allocation-free solve hot
// path: solves through a reused SolveWorkspace and batched
// multi-RHS interval rewards must reproduce the
// fresh-allocation path bit for bit (oracle tolerance zero) on seeded
// random models, across all four steady-state methods and both
// transient evaluators.  Fixed seeds keep the suite deterministic.
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "check/random_model.h"
#include "ctmc/solve_cache.h"

namespace rascal::check {
namespace {

TEST(WorkspaceConsensus, BitIdenticalOn80RandomErgodicModels) {
  stats::RandomEngine root(0xCAFE5EED);
  std::size_t total_checks = 0;
  for (std::uint64_t i = 0; i < 80; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const OracleReport report = check_workspace_consensus(model.chain, 0.75);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
    total_checks += report.checks;
  }
  // Per model: 4 methods x (2 workspace reps + cache) x states, plus
  // the transient and batched-reward comparisons.
  EXPECT_GT(total_checks, 80u * 30u);
}

TEST(WorkspaceConsensus, BitIdenticalOnBirthDeathModels) {
  stats::RandomEngine root(0xB17B1D7);
  for (std::uint64_t i = 0; i < 40; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_birth_death(rng);
    const OracleReport report = check_workspace_consensus(model.chain, 0.5);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
  }
}

TEST(WorkspaceConsensus, BitIdenticalOnStiffModelsDirectOnly) {
  // Six orders of magnitude between rates: the availability regime.
  // Iterative methods may honestly refuse these; the workspace gate
  // only needs the direct methods to stay bit-stable.
  RandomModelOptions stiff;
  stiff.min_rate = 1e-3;
  stiff.max_rate = 1e3;
  OracleOptions options;
  options.include_iterative = false;
  stats::RandomEngine root(0x571FF);
  for (std::uint64_t i = 0; i < 30; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng, stiff);
    const OracleReport report =
        check_workspace_consensus(model.chain, 0.01, options);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
  }
}

TEST(WorkspaceConsensus, CacheDistinguishesDifferentChains) {
  // The generator digest keys the shared tier: alternating between two
  // structurally different chains never hits, while a chain solved
  // before always does.  Without a shared tier nothing is cached.
  stats::RandomEngine rng_a(1);
  stats::RandomEngine rng_b(2);
  const GeneratedModel a = random_ergodic_ctmc(rng_a);
  const GeneratedModel b = random_ergodic_ctmc(rng_b);
  ASSERT_NE(ctmc::SolveCache::generator_digest(a.chain),
            ctmc::SolveCache::generator_digest(b.chain));

  ctmc::SolveCache cache;
  (void)cache.steady_state(a.chain);
  (void)cache.steady_state(a.chain);
  EXPECT_EQ(cache.hits(), 0u);
  ctmc::SharedSolveCache shared;
  cache.set_shared(&shared);
  for (const ctmc::Ctmc* chain : {&a.chain, &b.chain, &a.chain, &b.chain}) {
    (void)cache.steady_state(*chain);
  }
  EXPECT_EQ(cache.hits(), 2u);
}

}  // namespace
}  // namespace rascal::check
