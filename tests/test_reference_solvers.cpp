#include "check/reference_solvers.h"

#include <gtest/gtest.h>

#include <random>

#include "ctmc/builder.h"
#include "ctmc/steady_state.h"

namespace rascal::check {
namespace {

using linalg::CsrMatrix;

CsrMatrix two_state_generator(double lambda, double mu) {
  return CsrMatrix::from_parts(2, 2, {0, 2, 4}, {0, 1, 0, 1},
                               {-lambda, lambda, mu, -mu});
}

TEST(PowerIteration, MatchesClosedFormTwoState) {
  const auto result = power_stationary(two_state_generator(0.4, 1.6));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.pi[0], 0.8, 1e-9);
  EXPECT_NEAR(result.pi[1], 0.2, 1e-9);
}

TEST(GaussSeidel, MatchesClosedFormTwoState) {
  const auto result = gauss_seidel_stationary(two_state_generator(0.4, 1.6));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.pi[0], 0.8, 1e-10);
  EXPECT_NEAR(result.pi[1], 0.2, 1e-10);
}

TEST(PowerIteration, ReportsIterationsAndResidual) {
  const auto result = power_stationary(two_state_generator(1.0, 1.0));
  EXPECT_GT(result.iterations, 0u);
  EXPECT_LT(result.residual, 1e-8);
}

TEST(PowerIteration, RejectsNonSquare) {
  EXPECT_THROW(
      (void)power_stationary(CsrMatrix::from_parts(2, 3, {0, 0, 0}, {}, {})),
      std::invalid_argument);
}

TEST(GaussSeidel, ThrowsOnAbsorbingState) {
  // State 1 has no exit: no balance equation to sweep.
  const CsrMatrix q =
      CsrMatrix::from_parts(2, 2, {0, 2, 2}, {0, 1}, {-1.0, 1.0});
  EXPECT_THROW((void)gauss_seidel_stationary(q), std::domain_error);
}

class IterativeVsGth : public ::testing::TestWithParam<std::size_t> {};

// The iterative references against the production GTH solve.
TEST_P(IterativeVsGth, AgreesWithDirectSolverOnRandomChains) {
  const std::size_t n = GetParam();
  std::mt19937_64 gen(n * 31337);
  std::uniform_real_distribution<double> dist(0.05, 3.0);
  ctmc::CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.state("s" + std::to_string(i), 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c) b.rate(r, c, dist(gen));
    }
  }
  const ctmc::Ctmc chain = b.build();
  const linalg::Vector exact =
      ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGth)
          .probabilities;
  const CsrMatrix sparse = chain.sparse_generator();

  const auto power = power_stationary(sparse);
  const auto seidel = gauss_seidel_stationary(sparse);
  ASSERT_TRUE(power.converged);
  ASSERT_TRUE(seidel.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(power.pi[i], exact[i], 1e-8);
    EXPECT_NEAR(seidel.pi[i], exact[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IterativeVsGth,
                         ::testing::Values(2, 3, 5, 10, 30, 80));

}  // namespace
}  // namespace rascal::check
