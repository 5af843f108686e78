#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

namespace rascal::linalg {
namespace {

TEST(Lu, SolvesSmallSystem) {
  // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const Vector x = solve_linear_system(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresSquareMatrix) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(LuDecomposition{a}, std::domain_error);
}

TEST(Lu, PivotsOnZeroDiagonal) {
  // Naive elimination without pivoting fails on a(0,0) == 0.
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  const Vector x = solve_linear_system(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SolveRejectsWrongLength) {
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a(i, i) = 2.0;
  const LuDecomposition lu(a);
  EXPECT_THROW((void)lu.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Lu, MatrixRhsSolvesColumnwise) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  Matrix b(2, 2);
  b(0, 0) = 2.0;
  b(0, 1) = 4.0;
  b(1, 0) = 4.0;
  b(1, 1) = 8.0;
  const LuDecomposition lu(a);
  const Matrix x = lu.solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 2.0, 1e-12);
}

class LuRandomized : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomized, ReconstructsRandomSystems) {
  const std::size_t n = GetParam();
  std::mt19937_64 gen(n * 7919);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(gen);
    a(r, r) += static_cast<double>(n);  // diagonal dominance
  }
  Vector x_true(n);
  for (double& v : x_true) v = dist(gen);
  // b = A x, as (x^T A^T)^T.
  const Vector b = a.transposed().left_multiply(x_true);
  const Vector x = LuDecomposition(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomized,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

}  // namespace
}  // namespace rascal::linalg
