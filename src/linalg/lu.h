// LU decomposition with partial pivoting and linear solves.
#pragma once

#include "linalg/matrix.h"

namespace rascal::linalg {

/// LU factorisation with partial (row) pivoting: P A = L U.
/// Throws std::invalid_argument for non-square input and
/// std::domain_error when the matrix is numerically singular.
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix a);

  /// Solves A x = b.  Throws std::invalid_argument on size mismatch.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves A X = B column by column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

 private:
  Matrix lu_;                      // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
};

/// One-shot convenience: solves A x = b via LU.
[[nodiscard]] Vector solve_linear_system(Matrix a, const Vector& b);

}  // namespace rascal::linalg
