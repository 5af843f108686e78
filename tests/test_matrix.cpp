#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rascal::linalg {
namespace {

TEST(Matrix, ConstructsWithFill) {
  const Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, TransposeSwapsIndices) {
  Matrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m(r, c) = static_cast<double>(3 * r + c + 1);
    }
  }
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, LeftMultiplyIsRowVectorTimesMatrix) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  const Vector y = m.left_multiply({1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 7.0);   // 1*1 + 2*3
  EXPECT_DOUBLE_EQ(y[1], 10.0);  // 1*2 + 2*4
  EXPECT_THROW((void)m.left_multiply({1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(VectorOps, Norms) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
}

TEST(VectorOps, DotAndSubtract) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, NormalizeToSumOne) {
  Vector v{1.0, 3.0};
  normalize_to_sum_one(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(VectorOps, NormalizeRejectsZeroSum) {
  Vector v{0.0, 0.0};
  EXPECT_THROW(normalize_to_sum_one(v), std::domain_error);
}

}  // namespace
}  // namespace rascal::linalg
