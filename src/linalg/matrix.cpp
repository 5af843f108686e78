#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rascal::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::reshape(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Vector Matrix::left_multiply(const Vector& x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("Matrix::left_multiply: dimension mismatch");
  }
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) y[c] += xr * row[c];
  }
  return y;
}

double norm2(const Vector& v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double norm_inf(const Vector& v) noexcept {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: length mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void normalize_to_sum_one(Vector& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    throw std::domain_error("normalize_to_sum_one: non-positive sum");
  }
  for (double& x : v) x /= sum;
}

}  // namespace rascal::linalg
