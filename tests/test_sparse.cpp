#include "linalg/sparse.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

namespace rascal::linalg {
namespace {

// CSR image of a dense matrix, its nonzeros in row-major order.
CsrMatrix csr_of(const Matrix& d) {
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < d.rows(); ++r) {
    for (std::size_t c = 0; c < d.cols(); ++c) {
      if (d(r, c) != 0.0) triplets.push_back({r, c, d(r, c)});
    }
  }
  return CsrMatrix(d.rows(), d.cols(), triplets);
}

TEST(Csr, BuildsFromTriplets) {
  const CsrMatrix m(2, 3, {{0, 1, 5.0}, {1, 2, 7.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.non_zeros(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Csr, DuplicateTripletsAreSummed) {
  const CsrMatrix m(1, 1, {{0, 0, 1.5}, {0, 0, 2.5}});
  EXPECT_EQ(m.non_zeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
}

TEST(Csr, CancellingDuplicatesAreDropped) {
  const CsrMatrix m(1, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {0, 1, 2.0}});
  EXPECT_EQ(m.non_zeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Csr, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CsrMatrix(1, 1, {{0, 1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(1, 1, {{1, 0, 1.0}}), std::invalid_argument);
}

TEST(Csr, MultiplyMatchesDense) {
  const Matrix d{{1.0, 0.0, 2.0}, {0.0, 3.0, 0.0}, {4.0, 0.0, 5.0}};
  const CsrMatrix s = csr_of(d);
  const Vector x{1.0, 2.0, 3.0};
  const Vector ys = s.multiply(x);
  const Vector yd = d.multiply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(ys[i], yd[i]);
}

TEST(Csr, LeftMultiplyMatchesDense) {
  const Matrix d{{1.0, -1.0}, {2.0, 0.5}};
  const CsrMatrix s = csr_of(d);
  const Vector x{0.25, 4.0};
  const Vector ys = s.left_multiply(x);
  const Vector yd = d.left_multiply(x);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(ys[i], yd[i]);
}

TEST(Csr, RoundTripsThroughDense) {
  const Matrix d{{0.0, 1.0}, {2.0, 0.0}};
  EXPECT_EQ(csr_of(d).to_dense(), d);
}

TEST(Csr, RowReturnsOrderedEntries) {
  const CsrMatrix m(1, 4, {{0, 3, 4.0}, {0, 1, 2.0}});
  const auto row = m.row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].first, 1u);
  EXPECT_DOUBLE_EQ(row[0].second, 2.0);
  EXPECT_EQ(row[1].first, 3u);
  EXPECT_DOUBLE_EQ(row[1].second, 4.0);
}

TEST(Csr, DimensionMismatchThrows) {
  const CsrMatrix m(2, 3, {});
  EXPECT_THROW((void)m.multiply(Vector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)m.left_multiply(Vector{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(Csr, UnsortedTripletsComeOutRowMajorColumnSorted) {
  const CsrMatrix m(3, 3,
                    {{2, 1, 6.0}, {0, 2, 3.0}, {1, 0, 4.0}, {0, 0, 1.0},
                     {2, 2, 7.0}, {1, 1, 5.0}, {0, 1, 2.0}});
  EXPECT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 3, 5, 7}));
  EXPECT_EQ(m.col_idx(), (std::vector<std::size_t>{0, 1, 2, 0, 1, 1, 2}));
  EXPECT_EQ(m.values(),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}));
}

TEST(Csr, FromPartsRoundTrips) {
  const CsrMatrix src(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
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
  const CsrMatrix empty(0, 0, {});
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 0u);
  EXPECT_EQ(empty.non_zeros(), 0u);
  EXPECT_EQ(empty.row_ptr(), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(empty.to_dense().empty());

  const CsrMatrix rebuilt = CsrMatrix::from_parts(0, 0, {0}, {}, {});
  EXPECT_EQ(rebuilt.non_zeros(), 0u);

  // Multiplying by the empty vector is a no-op, not an error.
  Vector y{99.0};
  empty.multiply_into(Vector{}, y);
  EXPECT_TRUE(y.empty());
}

TEST(Csr, FullyDenseRowSortsStably) {
  // Regression for the per-row sort: the stationary augmented system
  // appends one fully dense row (the normalization row), long enough
  // to leave the insertion-sort fast path.  Feed that row's entries
  // in strictly descending column order — the historical worst case —
  // plus duplicates that must be summed in first-appearance order.
  constexpr std::size_t n = 257;  // > the 32-entry insertion cutoff
  std::vector<Triplet> triplets;
  triplets.reserve(n + 2);
  for (std::size_t j = n; j-- > 0;) {
    triplets.push_back({0, j, static_cast<double>(j) + 1.0});
  }
  // Duplicates landing mid-row after the sort.
  triplets.push_back({0, 7, 0.5});
  triplets.push_back({0, 7, 0.25});
  const CsrMatrix m(1, n, triplets);
  ASSERT_EQ(m.non_zeros(), n);
  const auto& cols = m.col_idx();
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(cols[j], j);
    const double expected =
        j == 7 ? 8.0 + 0.5 + 0.25 : static_cast<double>(j) + 1.0;
    EXPECT_DOUBLE_EQ(m.values()[j], expected);
  }
}

TEST(Csr, LongSortedRowSkipsTheSort) {
  // The sorted-detection scan must leave an already-ordered dense row
  // untouched (SPN emission produces rows in this form).
  constexpr std::size_t n = 100;
  std::vector<Triplet> triplets;
  for (std::size_t j = 0; j < n; ++j) {
    triplets.push_back({0, j, 1.0 / (static_cast<double>(j) + 1.0)});
  }
  const CsrMatrix m(1, n, triplets);
  ASSERT_EQ(m.non_zeros(), n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(m.col_idx()[j], j);
    EXPECT_DOUBLE_EQ(m.values()[j], 1.0 / (static_cast<double>(j) + 1.0));
  }
}

TEST(Csr, MultiplyIntoMatchesMultiply) {
  const CsrMatrix m(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  const Vector x{1.0, 2.0, 3.0};
  const Vector expected = m.multiply(x);
  Vector y;
  m.multiply_into(x, y);
  EXPECT_EQ(y, expected);
  const Vector z{4.0, 5.0};
  const Vector left = m.left_multiply(z);
  Vector w;
  m.left_multiply_into(z, w);
  EXPECT_EQ(w, left);
}

}  // namespace
}  // namespace rascal::linalg
