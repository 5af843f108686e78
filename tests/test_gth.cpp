#include "linalg/gth.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "linalg/matrix.h"

namespace rascal::linalg {
namespace {

// Two-state birth-death chain: pi = (mu, lambda) / (lambda + mu).
TEST(Gth, TwoStateChainHasClosedForm) {
  const double lambda = 0.3;
  const double mu = 1.7;
  Matrix q(2, 2);
  q(0, 0) = -lambda;
  q(0, 1) = lambda;
  q(1, 0) = mu;
  q(1, 1) = -mu;
  const Vector pi = gth_stationary(q);
  EXPECT_NEAR(pi[0], mu / (lambda + mu), 1e-14);
  EXPECT_NEAR(pi[1], lambda / (lambda + mu), 1e-14);
}

TEST(Gth, DiagonalIsIgnored) {
  // Passing garbage on the diagonal must not change the result.
  Matrix q(2, 2);
  q(0, 1) = 2.0;
  q(1, 0) = 1.0;
  const Vector a = gth_stationary(q);
  q(0, 0) = -99.0;
  q(1, 1) = 123.0;
  const Vector b = gth_stationary(q);
  EXPECT_NEAR(a[0], b[0], 1e-15);
  EXPECT_NEAR(a[1], b[1], 1e-15);
}

TEST(Gth, SingleStateIsDegenerate) {
  const Vector pi = gth_stationary(Matrix(1, 1, 0.0));
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

TEST(Gth, RejectsNonSquare) {
  EXPECT_THROW((void)gth_stationary(Matrix(2, 3)), std::invalid_argument);
}

TEST(Gth, RejectsNegativeOffDiagonal) {
  Matrix q(2, 2);
  q(0, 1) = -1.0;
  q(1, 0) = 1.0;
  EXPECT_THROW((void)gth_stationary(q), std::invalid_argument);
}

TEST(Gth, DetectsReducibleChain) {
  // State 1 cannot leave: zero pivot during elimination.
  Matrix q(2, 2);
  q(0, 0) = -1.0;
  q(0, 1) = 1.0;
  EXPECT_THROW((void)gth_stationary(q), std::domain_error);
}

TEST(Gth, BirthDeathChainMatchesDetailedBalance) {
  // Birth rate b, death rate d: pi_k proportional to (b/d)^k.
  const double b = 0.7;
  const double d = 1.3;
  const std::size_t n = 6;
  Matrix q(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    q(i, i + 1) = b;
    q(i + 1, i) = d;
  }
  const Vector pi = gth_stationary(q);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Detailed balance: pi_i * b = pi_{i+1} * d.
    EXPECT_NEAR(pi[i] * b, pi[i + 1] * d, 1e-14);
  }
}

TEST(Gth, HandlesExtremeRateStiffness) {
  // Failure rate 1e-9/h vs repair rate 3600/h: 12+ orders of
  // magnitude.  GTH must not lose the small probability.
  const double lambda = 1e-9;
  const double mu = 3600.0;
  Matrix q(2, 2);
  q(0, 1) = lambda;
  q(1, 0) = mu;
  const Vector pi = gth_stationary(q);
  EXPECT_NEAR(pi[1], lambda / (lambda + mu), 1e-25);
}

class GthProperty : public ::testing::TestWithParam<std::size_t> {};

// pi Q = 0 and sum(pi) = 1 on random irreducible generators.
TEST_P(GthProperty, StationaryVectorSatisfiesBalance) {
  const std::size_t n = GetParam();
  std::mt19937_64 gen(n * 104729);
  std::uniform_real_distribution<double> dist(0.01, 2.0);
  Matrix q(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c) q(r, c) = dist(gen);
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    double exit = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c) exit += q(r, c);
    }
    q(r, r) = -exit;
  }
  const Vector pi = gth_stationary(q);
  double sum = 0.0;
  for (double p : pi) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  const Vector residual = q.left_multiply(pi);
  for (double r : residual) EXPECT_NEAR(r, 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GthProperty,
                         ::testing::Values(2, 3, 4, 8, 16, 40, 100));

}  // namespace
}  // namespace rascal::linalg
