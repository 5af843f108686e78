#include "linalg/sparse.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace rascal::linalg {
namespace {

// The dense matrix {{1, -1, 0}, {2, 0.5, 0}} and its CSR image.
Matrix dense_example() {
  Matrix d(2, 3);
  d(0, 0) = 1.0;
  d(0, 1) = -1.0;
  d(1, 0) = 2.0;
  d(1, 1) = 0.5;
  return d;
}

CsrMatrix csr_example() {
  return CsrMatrix::from_parts(2, 3, {0, 2, 4}, {0, 1, 0, 1},
                               {1.0, -1.0, 2.0, 0.5});
}

TEST(Csr, LeftMultiplyMatchesDense) {
  const CsrMatrix s = csr_example();
  const Vector x{0.25, 4.0};
  Vector ys{99.0};  // resized by the call
  s.left_multiply_into(x, ys);
  const Vector yd = dense_example().left_multiply(x);
  ASSERT_EQ(ys.size(), yd.size());
  for (std::size_t i = 0; i < yd.size(); ++i) EXPECT_DOUBLE_EQ(ys[i], yd[i]);
}

TEST(Csr, DimensionMismatchThrows) {
  const CsrMatrix m = csr_example();
  Vector y;
  EXPECT_THROW(m.left_multiply_into(Vector{1.0, 2.0, 3.0}, y),
               std::invalid_argument);
}

TEST(Csr, FromPartsRoundTrips) {
  const CsrMatrix src = csr_example();
  EXPECT_EQ(src.rows(), 2u);
  EXPECT_EQ(src.cols(), 3u);
  EXPECT_EQ(src.non_zeros(), 4u);
  const CsrMatrix rebuilt = CsrMatrix::from_parts(
      src.rows(), src.cols(), src.row_ptr(), src.col_idx(), src.values());
  EXPECT_EQ(rebuilt.row_ptr(), src.row_ptr());
  EXPECT_EQ(rebuilt.col_idx(), src.col_idx());
  EXPECT_EQ(rebuilt.values(), src.values());
}

TEST(Csr, FromPartsRejectsMalformedStructure) {
  // row_ptr must start at 0, be monotone, end at nnz, with one entry
  // per row plus one.
  EXPECT_THROW((void)CsrMatrix::from_parts(2, 2, {0, 1}, {0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrMatrix::from_parts(1, 2, {1, 1}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrMatrix::from_parts(1, 2, {0, 2}, {0}, {1.0}),
               std::invalid_argument);
  // Columns must be strictly increasing within a row and in range.
  EXPECT_THROW(
      (void)CsrMatrix::from_parts(1, 2, {0, 2}, {1, 0}, {1.0, 2.0}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)CsrMatrix::from_parts(1, 2, {0, 2}, {0, 0}, {1.0, 2.0}),
      std::invalid_argument);
  EXPECT_THROW((void)CsrMatrix::from_parts(1, 2, {0, 1}, {2}, {1.0}),
               std::invalid_argument);
}

TEST(Csr, ZeroStateMatrixConstructs) {
  // Regression: the degenerate 0 x 0 matrix (an empty CTMC would
  // produce it) must build from both constructors without touching
  // row_ptr past its single sentinel entry.
  const CsrMatrix empty;
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 0u);
  EXPECT_EQ(empty.non_zeros(), 0u);
  EXPECT_EQ(empty.row_ptr(), (std::vector<std::size_t>{0}));

  const CsrMatrix rebuilt = CsrMatrix::from_parts(0, 0, {0}, {}, {});
  EXPECT_EQ(rebuilt.non_zeros(), 0u);
  EXPECT_EQ(rebuilt.row_ptr(), empty.row_ptr());

  // Multiplying by the empty vector is a no-op, not an error.
  Vector y{99.0};
  rebuilt.left_multiply_into(Vector{}, y);
  EXPECT_TRUE(y.empty());
}

}  // namespace
}  // namespace rascal::linalg
