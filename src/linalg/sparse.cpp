#include "linalg/sparse.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace rascal::linalg {

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::size_t> row_ptr,
                                std::vector<std::size_t> col_idx,
                                std::vector<double> values) {
  if (row_ptr.size() != rows + 1 || row_ptr.front() != 0 ||
      row_ptr.back() != col_idx.size() || col_idx.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix::from_parts: inconsistent arrays");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      throw std::invalid_argument(
          "CsrMatrix::from_parts: row_ptr not monotone");
    }
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] >= cols ||
          (k > row_ptr[r] && col_idx[k - 1] >= col_idx[k])) {
        throw std::invalid_argument(
            "CsrMatrix::from_parts: columns must be sorted, unique and in "
            "range");
      }
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

void CsrMatrix::left_multiply_into(const Vector& x, Vector& y) const {
  if (x.size() != rows_) {
    throw std::invalid_argument(
        "CsrMatrix::left_multiply: dimension mismatch");
  }
  y.assign(cols_, 0.0);
  const std::size_t* rp = row_ptr_.data();
  const std::size_t* ci = col_idx_.data();
  const double* vv = values_.data();
  double* yp = y.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const std::size_t end = rp[r + 1];
    for (std::size_t k = rp[r]; k < end; ++k) {
      yp[ci[k]] += xr * vv[k];
    }
  }
}

void require_32bit_indices(std::size_t count, const char* who) {
  if (count >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(std::string(who) +
                            ": too large for 32-bit indices");
  }
}

}  // namespace rascal::linalg
