#include "linalg/sparse.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace rascal::linalg {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     const std::vector<Triplet>& triplets)
    : rows_(rows), cols_(cols) {
  build(triplets);
}

void CsrMatrix::build(const std::vector<Triplet>& triplets) {
  // One pass validates indices and bucket-counts entries per row; the
  // triplet list itself is never copied or sorted.
  row_ptr_.assign(rows_ + 1, 0);
  for (const Triplet& t : triplets) {
    if (t.row >= rows_ || t.col >= cols_) {
      throw std::invalid_argument("CsrMatrix: triplet index out of range");
    }
    ++row_ptr_[t.row + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];

  // Counting-sort scatter into the CSR arrays, ordered by row with
  // input order preserved inside each row.
  col_idx_.resize(triplets.size());
  values_.resize(triplets.size());
  std::vector<std::size_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  for (const Triplet& t : triplets) {
    const std::size_t k = cursor[t.row]++;
    col_idx_[k] = t.col;
    values_[k] = t.value;
  }

  // Order each row by column.  Already-sorted rows (the common CTMC
  // case) are detected in O(row length) and left alone.  Short
  // unsorted rows use a stable insertion sort; long ones — e.g. a
  // fully-dense normalization row assembled in arbitrary order, where
  // insertion sort would go quadratic — use a stable permutation
  // sort.  Both keep input order among duplicate columns, so the
  // merge below sums duplicates in the same order either way.
  constexpr std::size_t kInsertionSortMax = 32;
  std::vector<std::size_t> perm;
  std::vector<std::size_t> tmp_cols;
  std::vector<double> tmp_vals;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t b = row_ptr_[r];
    const std::size_t e = row_ptr_[r + 1];
    bool sorted = true;
    for (std::size_t i = b + 1; i < e; ++i) {
      if (col_idx_[i - 1] > col_idx_[i]) {
        sorted = false;
        break;
      }
    }
    if (sorted) continue;
    if (e - b <= kInsertionSortMax) {
      for (std::size_t i = b + 1; i < e; ++i) {
        const std::size_t c = col_idx_[i];
        const double v = values_[i];
        std::size_t j = i;
        while (j > b && col_idx_[j - 1] > c) {
          col_idx_[j] = col_idx_[j - 1];
          values_[j] = values_[j - 1];
          --j;
        }
        col_idx_[j] = c;
        values_[j] = v;
      }
    } else {
      perm.resize(e - b);
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      std::stable_sort(perm.begin(), perm.end(),
                       [&](std::size_t a, std::size_t z) {
                         return col_idx_[b + a] < col_idx_[b + z];
                       });
      tmp_cols.assign(col_idx_.begin() + static_cast<std::ptrdiff_t>(b),
                      col_idx_.begin() + static_cast<std::ptrdiff_t>(e));
      tmp_vals.assign(values_.begin() + static_cast<std::ptrdiff_t>(b),
                      values_.begin() + static_cast<std::ptrdiff_t>(e));
      for (std::size_t i = 0; i < perm.size(); ++i) {
        col_idx_[b + i] = tmp_cols[perm[i]];
        values_[b + i] = tmp_vals[perm[i]];
      }
    }
  }

  // Compact in place: sum duplicate (row, col) entries, drop zero sums.
  std::size_t out = 0;
  std::size_t b = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t e = row_ptr_[r + 1];
    std::size_t i = b;
    while (i < e) {
      const std::size_t c = col_idx_[i];
      double sum = 0.0;
      while (i < e && col_idx_[i] == c) {
        sum += values_[i];
        ++i;
      }
      if (sum != 0.0) {
        col_idx_[out] = c;
        values_[out] = sum;
        ++out;
      }
    }
    b = e;
    row_ptr_[r + 1] = out;
  }
  col_idx_.resize(out);
  values_.resize(out);
}

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

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply_into(x, y);
  return y;
}

void CsrMatrix::multiply_into(const Vector& x, Vector& y) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("CsrMatrix::multiply: dimension mismatch");
  }
  y.assign(rows_, 0.0);
  const std::size_t* rp = row_ptr_.data();
  const std::size_t* ci = col_idx_.data();
  const double* vv = values_.data();
  const double* xp = x.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    // Single sequential accumulator: the summation order is part of the
    // bit-identity contract, so no multi-accumulator unrolling here.
    double acc = 0.0;
    const std::size_t end = rp[r + 1];
    for (std::size_t k = rp[r]; k < end; ++k) {
      acc += vv[k] * xp[ci[k]];
    }
    y[r] = acc;
  }
}

Vector CsrMatrix::left_multiply(const Vector& x) const {
  Vector y;
  left_multiply_into(x, y);
  return y;
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

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("CsrMatrix::at");
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    if (col_idx_[k] == c) return values_[k];
  }
  return 0.0;
}

Matrix CsrMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m(r, col_idx_[k]) = values_[k];
    }
  }
  return m;
}

std::vector<std::pair<std::size_t, double>> CsrMatrix::row(
    std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("CsrMatrix::row");
  std::vector<std::pair<std::size_t, double>> out;
  out.reserve(row_ptr_[r + 1] - row_ptr_[r]);
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    out.emplace_back(col_idx_[k], values_[k]);
  }
  return out;
}

void require_32bit_indices(std::size_t count, const char* who) {
  if (count >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(std::string(who) +
                            ": too large for 32-bit indices");
  }
}

}  // namespace rascal::linalg
