// Dense row-major matrix of doubles plus small vector utilities.
//
// This is deliberately a minimal numerical kernel: availability models
// in this library rarely exceed a few thousand states, so a simple
// contiguous dense matrix with O(n^3) direct solvers is the right
// trade-off for the default path.  Larger state spaces use the sparse
// CSR representation in sparse.h.
#pragma once

#include <cstddef>
#include <vector>

namespace rascal::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix.  operator() does not check indices.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Reshapes to rows x cols and refills every entry with `fill`,
  /// reusing the existing heap block when capacity allows.  The
  /// workhorse of SolveWorkspace reuse: repeated same-shape solves
  /// never reallocate.
  void reshape(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Raw storage, row-major.
  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

  [[nodiscard]] Matrix transposed() const;

  /// Row-vector product y = x^T A (useful for pi Q).  Throws on
  /// dimension mismatch.
  [[nodiscard]] Vector left_multiply(const Vector& x) const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm.
[[nodiscard]] double norm2(const Vector& v) noexcept;

/// Max absolute value.
[[nodiscard]] double norm_inf(const Vector& v) noexcept;

/// Dot product; throws std::invalid_argument on length mismatch.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Scales v so its entries sum to 1.  Throws std::domain_error when the
/// sum is zero or not finite.
void normalize_to_sum_one(Vector& v);

}  // namespace rascal::linalg
