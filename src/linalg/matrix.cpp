#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rascal::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() == 0 ? 0 : rows.begin()->size()) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::reshape(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Vector Matrix::multiply(const Vector& x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
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

Matrix Matrix::multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
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
