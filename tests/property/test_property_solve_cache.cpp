// Key-discrimination and bit-identity properties of the solve cache.
//
// The whole determinism contract of the batch/serve mode rests on one
// claim: two solves share a cache slot only when every input that can
// change the computed bits is identical.  These tests attack the key
// from both sides — every SolveControl field, the method, validation,
// and every transition rate must discriminate (no stale hit can ever
// alias), while fields that cannot affect the solution (cancellation
// token, workspace pointer) must NOT discriminate (or warm caches
// would never hit).  The shared tier is then checked for byte-exact
// round-trips, bounded occupancy, and eviction behavior, plus the
// cross-worker oracle on seeded random models.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "check/oracle.h"
#include "check/random_model.h"
#include "ctmc/builder.h"
#include "ctmc/solve_cache.h"
#include "linalg/workspace.h"
#include "resil/cancel.h"

namespace rascal::check {
namespace {

ctmc::Ctmc repair_pair(double lambda = 0.002, double mu = 0.5) {
  ctmc::CtmcBuilder builder;
  const auto up = builder.state("Up", 1.0);
  const auto down = builder.state("Down", 0.0);
  builder.rate(up, down, lambda).rate(down, up, mu);
  return builder.build();
}

using ctmc::steady_state_key;
using Method = ctmc::SteadyStateMethod;

TEST(SolveCacheKey, EverySolveControlFieldDiscriminates) {
  const ctmc::Ctmc chain = repair_pair();
  const ctmc::SolveControl base;
  const std::uint64_t reference =
      steady_state_key(chain, Method::kGth, ctmc::Validation::kOn, base);

  std::set<std::uint64_t> keys = {reference};
  const auto expect_new_key = [&](const char* what,
                                  const ctmc::SolveControl& control,
                                  Method method = Method::kGth,
                                  ctmc::Validation validation =
                                      ctmc::Validation::kOn) {
    const std::uint64_t key =
        steady_state_key(chain, method, validation, control);
    EXPECT_TRUE(keys.insert(key).second)
        << what << " aliased an existing key";
  };

  ctmc::SolveControl changed;
  changed.max_iterations = 100;
  expect_new_key("max_iterations", changed);

  changed = {};
  changed.sparse_threshold = 64;
  expect_new_key("sparse_threshold", changed);

  changed = {};
  changed.precond = linalg::PrecondKind::kJacobi;
  expect_new_key("precond jacobi", changed);
  changed.precond = linalg::PrecondKind::kNone;
  expect_new_key("precond none", changed);

  changed = {};
  changed.gmres_restart = 25;
  expect_new_key("gmres_restart", changed);

  expect_new_key("validation off", base, Method::kGth,
                 ctmc::Validation::kOff);

  for (const Method method : {Method::kGmres, Method::kBiCgStab}) {
    expect_new_key("method", base, method);
  }
}

TEST(SolveCacheKey, NonSemanticFieldsDoNotDiscriminate) {
  // The cancel token and the workspace pointer never change the
  // computed bits; keying on them would make every warm lookup miss.
  const ctmc::Ctmc chain = repair_pair();
  const ctmc::SolveControl base;
  const std::uint64_t reference =
      steady_state_key(chain, Method::kGth, ctmc::Validation::kOn, base);

  resil::CancellationToken token;
  linalg::SolveWorkspace workspace;
  ctmc::SolveControl with_scratch;
  with_scratch.cancel = &token;
  with_scratch.workspace = &workspace;
  EXPECT_EQ(reference, steady_state_key(chain, Method::kGth,
                                        ctmc::Validation::kOn, with_scratch));
}

TEST(SolveCacheKey, EveryTransitionRateDiscriminates) {
  // Perturbing any single rate by one ulp must change the key: the
  // digest covers the exact bit pattern of every transition, so a
  // parametric sweep point can never be served another point's pi.
  const double lambda = 0.002;
  const double mu = 0.5;
  const std::uint64_t reference = steady_state_key(
      repair_pair(lambda, mu), Method::kGth, ctmc::Validation::kOn, {});
  const double lambda_up = std::nextafter(lambda, 1.0);
  const double mu_up = std::nextafter(mu, 1.0);
  EXPECT_NE(reference,
            steady_state_key(repair_pair(lambda_up, mu), Method::kGth,
                             ctmc::Validation::kOn, {}));
  EXPECT_NE(reference,
            steady_state_key(repair_pair(lambda, mu_up), Method::kGth,
                             ctmc::Validation::kOn, {}));
}

TEST(SolveCacheKey, StructureDiscriminates) {
  // Same rate multiset, different endpoints.
  ctmc::CtmcBuilder forward;
  const auto a1 = forward.state("A", 1.0);
  const auto b1 = forward.state("B", 0.0);
  forward.rate(a1, b1, 1.0).rate(b1, a1, 2.0);

  ctmc::CtmcBuilder reversed;
  const auto a2 = reversed.state("A", 1.0);
  const auto b2 = reversed.state("B", 0.0);
  reversed.rate(a2, b2, 2.0).rate(b2, a2, 1.0);

  EXPECT_NE(steady_state_key(forward.build(), Method::kGth,
                             ctmc::Validation::kOn, {}),
            steady_state_key(reversed.build(), Method::kGth,
                             ctmc::Validation::kOn, {}));
}

TEST(SharedSolveCache, RoundTripsByteExactCopies) {
  ctmc::SharedSolveCache cache;
  ASSERT_TRUE(cache.enabled());

  const ctmc::Ctmc chain = repair_pair();
  const ctmc::SteadyState solved = ctmc::solve_steady_state(chain);
  const std::uint64_t key =
      steady_state_key(chain, Method::kGth, ctmc::Validation::kOn, {});

  ctmc::SteadyState out;
  EXPECT_FALSE(cache.lookup(key, chain, out));
  cache.insert(key, chain, solved);
  ASSERT_TRUE(cache.lookup(key, chain, out));
  ASSERT_EQ(out.probabilities.size(), solved.probabilities.size());
  for (std::size_t s = 0; s < solved.probabilities.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.probabilities[s]),
              std::bit_cast<std::uint64_t>(solved.probabilities[s]));
  }
  EXPECT_EQ(out.residual, solved.residual);
  EXPECT_EQ(out.method, solved.method);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.occupancy, 1u);
}

TEST(SharedSolveCache, KeyMatchOfAnotherShapeIsAMiss) {
  // One batch cache serves several models: a forced key collision with
  // a chain of fewer states, or of more transitions, must miss.
  const auto ring = [](bool chord) {
    ctmc::CtmcBuilder builder;
    const auto a = builder.state("A", 1.0);
    const auto b = builder.state("B", 1.0);
    const auto c = builder.state("C", 0.0);
    builder.rate(a, b, 1.0).rate(b, c, 1.0).rate(c, a, 1.0);
    if (chord) builder.rate(a, c, 0.5);
    return builder.build();
  };
  ctmc::SharedSolveCache cache;
  cache.insert(7, ring(false), ctmc::solve_steady_state(ring(false)));
  ctmc::SteadyState out;
  EXPECT_FALSE(cache.lookup(7, repair_pair(), out));
  EXPECT_FALSE(cache.lookup(7, ring(true), out));
  ASSERT_TRUE(cache.lookup(7, ring(false), out));
  EXPECT_EQ(out.probabilities.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SharedSolveCache, CapacityZeroDisablesCleanly) {
  ctmc::SharedSolveCache::Config config;
  config.capacity = 0;
  ctmc::SharedSolveCache cache(config);
  EXPECT_FALSE(cache.enabled());

  const ctmc::Ctmc chain = repair_pair();
  const ctmc::SteadyState solved = ctmc::solve_steady_state(chain);
  cache.insert(1, chain, solved);  // dropped, not stored
  ctmc::SteadyState out;
  EXPECT_FALSE(cache.lookup(1, chain, out));
  EXPECT_EQ(cache.stats().capacity, 0u);
  EXPECT_EQ(cache.stats().occupancy, 0u);
}

TEST(SharedSolveCache, OccupancyStaysBoundedUnderEviction) {
  // Far more distinct keys than slots: occupancy must never exceed
  // capacity and the overflow must surface as evictions, not growth.
  ctmc::SharedSolveCache::Config config;
  config.capacity = 8;
  ctmc::SharedSolveCache cache(config);

  const ctmc::Ctmc chain = repair_pair();
  const ctmc::SteadyState solved = ctmc::solve_steady_state(chain);
  for (std::uint64_t key = 1; key <= 256; ++key) {
    cache.insert(key, chain, solved);
  }
  const auto stats = cache.stats();
  EXPECT_LE(stats.occupancy, stats.capacity);
  EXPECT_GE(stats.capacity, 8u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 256u);
}

TEST(SharedCacheConsensus, BitIdenticalOn60RandomErgodicModels) {
  stats::RandomEngine root(0x5EED0CAC);
  std::size_t total_checks = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const OracleReport report = check_shared_cache_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
    total_checks += report.checks;
  }
  // 3 methods x 2 serving paths x (states + residual) + tier stats.
  EXPECT_GT(total_checks, 60u * 30u);
}

TEST(SharedCacheConsensus, BitIdenticalOnStiffModelsDirectOnly) {
  // The availability regime, through every production method.
  RandomModelOptions stiff;
  stiff.min_rate = 1e-3;
  stiff.max_rate = 1e3;
  stats::RandomEngine root(0x0CAC517F);
  for (std::uint64_t i = 0; i < 30; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng, stiff);
    const OracleReport report = check_shared_cache_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
  }
}

}  // namespace
}  // namespace rascal::check
