// Property suite for the sparse Krylov engine: the differential
// oracle check_krylov_consensus (GMRES and BiCGStab under every
// preconditioner against dense GTH, refusal symmetry, workspace
// bit-identity) on seeded random families, metamorphic invariances
// (rate rescaling, state permutation).  Fixed seeds keep the suite
// deterministic.
#include <gtest/gtest.h>

#include <cmath>

#include "check/oracle.h"
#include "check/random_model.h"
#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "models/kofn_as.h"

namespace rascal::check {
namespace {

TEST(KrylovConsensus, HoldsOn100RandomErgodicModels) {
  stats::RandomEngine root(0x6B52E5);
  std::size_t total_checks = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const OracleReport report = check_krylov_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
    total_checks += report.checks;
  }
  // 6 Krylov variants x (residual + per-state + availability) plus
  // the workspace reps: well over 20 comparisons per model.
  EXPECT_GT(total_checks, 100u * 20u);
}

TEST(KrylovConsensus, HoldsOn100BirthDeathModelsWithClosedForm) {
  stats::RandomEngine root(0x6B52B1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_birth_death(rng);
    const OracleReport report = check_krylov_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
    // The closed form pins the whole consensus to ground truth.
    ASSERT_TRUE(model.analytic_steady.has_value());
    const auto steady = ctmc::solve_steady_state(
        model.chain, ctmc::SteadyStateMethod::kGmres);
    for (std::size_t s = 0; s < model.chain.num_states(); ++s) {
      EXPECT_NEAR(steady.probabilities[s], (*model.analytic_steady)[s], 1e-9)
          << model.description << " state " << s;
    }
  }
}

TEST(KrylovConsensus, HoldsOnErlangChains) {
  stats::RandomEngine root(0x6B52E7);
  for (std::uint64_t i = 0; i < 40; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_erlang_chain(rng);
    const OracleReport report = check_krylov_consensus(model.chain);
    EXPECT_TRUE(report.ok())
        << model.description << " [stream " << i << "]\n"
        << report.summary();
  }
}

TEST(KrylovConsensus, HoldsOn100KofnReplicationModels) {
  // The engine's reason to exist: seeded sweeps over the k-of-n
  // replicated-AS family (coupled repairs, no product form).  Small n
  // keeps the dense GTH reference affordable; the structure — stiff
  // coverage splits, shared-crew coupling — is the same at n = 11.
  stats::RandomEngine root(0x6B52A5);
  for (std::uint64_t i = 0; i < 100; ++i) {
    stats::RandomEngine rng = root.split(i);
    models::KofnAsConfig config;
    config.nodes = 4 + rng.uniform_index(2);  // 81 or 243 states
    config.quorum = 1 + rng.uniform_index(config.nodes);
    config.repair_crews = 1 + rng.uniform_index(config.nodes);
    config.failure_rate = std::exp(rng.uniform(std::log(1e-3), std::log(0.5)));
    config.restart_coverage = rng.uniform(0.0, 1.0);
    config.restart_rate = std::exp(rng.uniform(std::log(1.0), std::log(60.0)));
    config.rebuild_rate = std::exp(rng.uniform(std::log(0.05), std::log(2.0)));
    const ctmc::Ctmc chain = models::kofn_as_model(config);
    const OracleReport report = check_krylov_consensus(chain);
    EXPECT_TRUE(report.ok())
        << "kofn nodes=" << config.nodes
        << " quorum=" << config.quorum << " crews=" << config.repair_crews
        << " [stream " << i << "]\n"
        << report.summary();
  }
}

TEST(KrylovConsensus, HoldsOnASixNodeTier) {
  // One larger instance (729 states) so the consensus also runs where
  // ILU(0) genuinely matters.
  models::KofnAsConfig config;
  config.nodes = 6;
  config.quorum = 4;
  config.repair_crews = 2;
  const OracleReport report =
      check_krylov_consensus(models::kofn_as_model(config));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KrylovMetamorphic, StationaryDistributionIsRateScaleInvariant) {
  // pi(cQ) == pi(Q) for any c > 0: rescaling stresses the Krylov
  // tolerance handling (||b|| is unchanged but ||A|| scales).
  stats::RandomEngine root(0x6B52C1);
  for (std::uint64_t i = 0; i < 60; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const double factor = std::exp(rng.uniform(std::log(1e-3), std::log(1e3)));
    const ctmc::Ctmc scaled = rescale_rates(model.chain, factor);
    for (const auto method : {ctmc::SteadyStateMethod::kGmres,
                              ctmc::SteadyStateMethod::kBiCgStab}) {
      const auto base = ctmc::solve_steady_state(model.chain, method);
      const auto after = ctmc::solve_steady_state(scaled, method);
      for (std::size_t s = 0; s < model.chain.num_states(); ++s) {
        EXPECT_NEAR(after.probabilities[s], base.probabilities[s], 1e-8)
            << model.description << " x" << factor << " state " << s;
      }
    }
  }
}

TEST(KrylovMetamorphic, StationaryDistributionCommutesWithPermutation) {
  // pi_perm[perm[i]] == pi[i]: a solver biased by state order (the
  // augmented system pins the *last* balance row) would break this.
  stats::RandomEngine root(0x6B52D0);
  for (std::uint64_t i = 0; i < 60; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const auto perm = random_permutation(model.chain.num_states(), rng);
    const ctmc::Ctmc permuted = permute_states(model.chain, perm);
    for (const auto method : {ctmc::SteadyStateMethod::kGmres,
                              ctmc::SteadyStateMethod::kBiCgStab}) {
      const auto base = ctmc::solve_steady_state(model.chain, method);
      const auto after = ctmc::solve_steady_state(permuted, method);
      for (std::size_t s = 0; s < model.chain.num_states(); ++s) {
        EXPECT_NEAR(after.probabilities[perm[s]], base.probabilities[s],
                    1e-8)
            << model.description << " state " << s;
      }
    }
  }
}

TEST(KrylovMetamorphic, PermutationRejectsMalformedInput) {
  stats::RandomEngine rng(1);
  const GeneratedModel model = random_ergodic_ctmc(rng);
  const std::size_t n = model.chain.num_states();
  EXPECT_THROW((void)permute_states(model.chain,
                                    std::vector<std::size_t>(n - 1, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)permute_states(model.chain,
                                    std::vector<std::size_t>(n, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace rascal::check
