#include "check/expm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ctmc/builder.h"
#include "ctmc/transient.h"
#include "linalg/lu.h"

namespace rascal::linalg {
namespace {

using check::matrix_exponential;

TEST(Expm, ZeroMatrixGivesIdentity) {
  const Matrix e = matrix_exponential(Matrix(3, 3, 0.0));
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(e(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Expm, DiagonalMatrixExponentiatesEntrywise) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -2.0;
  const Matrix e = matrix_exponential(a);
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-14);
}

TEST(Expm, NilpotentMatrixTruncatesSeries) {
  // [[0,1],[0,0]]: exp = I + A exactly.
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  const Matrix e = matrix_exponential(a);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-14);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-14);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-14);
}

TEST(Expm, RotationMatrixGivesSineCosine) {
  // exp([[0,-t],[t,0]]) = rotation by t.
  const double t = 1.3;
  Matrix a(2, 2);
  a(0, 1) = -t;
  a(1, 0) = t;
  const Matrix e = matrix_exponential(a);
  EXPECT_NEAR(e(0, 0), std::cos(t), 1e-12);
  EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-12);
  EXPECT_NEAR(e(1, 0), std::sin(t), 1e-12);
}

TEST(Expm, InverseProperty) {
  // exp(A) exp(-A) = I even for large-norm A (exercises scaling).
  constexpr double kA[3][3] = {
      {3.0, 1.5, -2.0}, {0.5, -4.0, 1.0}, {2.0, 0.0, 5.0}};
  Matrix a(3, 3);
  Matrix minus_a(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = kA[r][c];
      minus_a(r, c) = -kA[r][c];
    }
  }
  const Matrix e = matrix_exponential(a);
  const Matrix e_minus = matrix_exponential(minus_a);
  for (std::size_t r = 0; r < 3; ++r) {
    // Row r of exp(A) exp(-A).
    Vector row(3);
    for (std::size_t c = 0; c < 3; ++c) row[c] = e(r, c);
    const Vector prod = e_minus.left_multiply(row);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(prod[c], r == c ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Expm, RejectsNonSquare) {
  EXPECT_THROW((void)matrix_exponential(Matrix(2, 3)), std::invalid_argument);
}

// Cross-validation with the uniformization transient solver: the row
// of exp(Q t) for the initial state equals pi(t).
TEST(Expm, AgreesWithUniformizationOnCtmc) {
  ctmc::CtmcBuilder b;
  b.state("A", 1.0);
  b.state("B", 1.0);
  b.state("C", 0.0);
  b.rate(0, 1, 2.0).rate(1, 2, 1.5).rate(2, 0, 0.7).rate(1, 0, 0.3);
  const ctmc::Ctmc chain = b.build();

  for (double t : {0.1, 1.0, 5.0}) {
    Matrix qt = chain.generator();
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) qt(r, c) *= t;
    }
    const Matrix e = matrix_exponential(qt);
    const auto transient =
        ctmc::transient_distribution(chain, Vector{1.0, 0.0, 0.0}, t);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(e(0, j), transient.probabilities[j], 1e-9)
          << "t=" << t << " state " << j;
    }
  }
}

class ExpmVsUniformization : public ::testing::TestWithParam<std::size_t> {};

// Property sweep: on random generators the two independent transient
// methods must agree for several horizons.
TEST_P(ExpmVsUniformization, AgreeOnRandomGenerators) {
  const std::size_t n = GetParam();
  std::mt19937_64 gen(n * 2749);
  std::uniform_real_distribution<double> dist(0.05, 2.0);
  ctmc::CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.state("s" + std::to_string(i), 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (gen() % 3 != 0)) b.rate(i, j, dist(gen));
    }
  }
  const ctmc::Ctmc chain = b.build();
  Vector start(n, 0.0);
  start[0] = 1.0;
  for (double t : {0.2, 1.0, 4.0}) {
    Matrix qt = chain.generator();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) qt(r, c) *= t;
    }
    const Matrix e = matrix_exponential(qt);
    const auto transient = ctmc::transient_distribution(chain, start, t);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(e(0, j), transient.probabilities[j], 1e-8)
          << "n=" << n << " t=" << t << " state " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExpmVsUniformization,
                         ::testing::Values(2, 3, 5, 8, 12));

// Probability rows of exp(Q t) stay stochastic.
TEST(Expm, GeneratorExponentialRowsSumToOne) {
  ctmc::CtmcBuilder b;
  b.state("X", 1.0);
  b.state("Y", 1.0);
  b.rate(0, 1, 4.0).rate(1, 0, 0.25);
  Matrix q = b.build().generator();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) q(r, c) *= 2.5;
  }
  const Matrix e = matrix_exponential(q);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_NEAR(e(r, 0) + e(r, 1), 1.0, 1e-12);
    EXPECT_GE(e(r, 0), 0.0);
    EXPECT_GE(e(r, 1), 0.0);
  }
}

}  // namespace
}  // namespace rascal::linalg
