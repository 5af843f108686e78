// Retry/fallback bit-identity oracle over seeded random models.
//
// The serve supervision layer promises that a request which recovers
// from transient faults is indistinguishable — byte for byte — from a
// request the fault never touched, at every RASCAL_THREADS and across
// kill/resume.  check_retry_consensus() attacks that claim per model:
// every absorbable fault count must reproduce the direct solve
// exactly, exhaustion must throw (never return partial bits), and the
// fallback ladder must be a pure function of its inputs.  Running it
// over many seeded ergodic and stiff chains is what turns the claim
// from "passed on the fixtures" into a property of the engine.
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "check/random_model.h"
#include "stats/rng.h"

namespace rascal::check {
namespace {

TEST(RetryConsensus, BitIdenticalOn60RandomErgodicModels) {
  stats::RandomEngine root(0x2E7241AA);
  std::size_t total_checks = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const OracleReport report = check_retry_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
    total_checks += report.checks;
  }
  // 3 methods x 3 fault counts x (states + bookkeeping) per model.
  EXPECT_GT(total_checks, 60u * 50u);
}

TEST(RetryConsensus, BitIdenticalOnStiffModelsDirectOnly) {
  RandomModelOptions stiff;
  stiff.min_rate = 1e-3;
  stiff.max_rate = 1e3;
  stats::RandomEngine root(0x2E7241BB);
  for (std::uint64_t i = 0; i < 30; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng, stiff);
    const OracleReport report = check_retry_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
  }
}

TEST(RetryConsensus, BirthDeathChainsAgreeWithClosedForm) {
  // Retry recovery must also hold on chains with known ground truth:
  // the supervised bits equal the direct bits, and the direct bits
  // are already gated against the closed-form stationary vector.
  stats::RandomEngine root(0x2E7241CC);
  for (std::uint64_t i = 0; i < 20; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_birth_death(rng);
    const OracleReport retry = check_retry_consensus(model.chain);
    EXPECT_TRUE(retry.ok())
        << model.description << " [stream " << i << "]\n"
        << retry.summary();
    ASSERT_TRUE(model.analytic_steady.has_value());
    const OracleReport analytic =
        check_steady_state_against(model.chain, *model.analytic_steady);
    EXPECT_TRUE(analytic.ok())
        << model.description << " [stream " << i << "]\n"
        << analytic.summary();
  }
}

}  // namespace
}  // namespace rascal::check
