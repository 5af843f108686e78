// Compressed sparse row (CSR) matrix for large CTMC state spaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace rascal::linalg {

/// A view of a square CSR sparsity pattern with 32-bit indices, as
/// the Krylov plan (krylov_plan.h) keeps its system's: row r occupies
/// [row_ptr[r], row_ptr[r+1]) of col_idx, column-sorted with unique
/// columns.
struct CsrPatternView {
  std::span<const std::uint32_t> row_ptr;
  std::span<const std::uint32_t> col_idx;

  [[nodiscard]] std::size_t rows() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
};

/// Immutable CSR matrix, built from its arrays.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Adopts pre-built CSR arrays without any triplet round trip.  Rows
  /// must be column-sorted with unique columns; throws
  /// std::invalid_argument when the arrays are inconsistent.
  [[nodiscard]] static CsrMatrix from_parts(std::size_t rows,
                                            std::size_t cols,
                                            std::vector<std::size_t> row_ptr,
                                            std::vector<std::size_t> col_idx,
                                            std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t non_zeros() const noexcept {
    return values_.size();
  }

  /// y = x^T A into caller-owned storage (y is resized; x and y may
  /// not alias).  Throws std::invalid_argument on dimension mismatch.
  void left_multiply_into(const Vector& x, Vector& y) const;

  /// Raw CSR arrays for allocation-free iteration: row r occupies
  /// [row_ptr()[r], row_ptr()[r+1]) in col_idx()/values().
  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Throws std::length_error unless `count` rows or entries fit 32-bit
/// indices, with one value to spare for a "no position" marker.
void require_32bit_indices(std::size_t count, const char* who);

}  // namespace rascal::linalg
