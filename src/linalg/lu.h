// LU decomposition with partial pivoting and linear solves.
#pragma once

#include "linalg/matrix.h"

namespace rascal::linalg {

/// LU factorisation with partial (row) pivoting: P A = L U.
/// Throws std::invalid_argument for non-square input and
/// std::domain_error when the matrix is numerically singular.
class LuDecomposition {
 public:
  /// Empty decomposition; call refactor() before solving.  Exists so a
  /// SolveWorkspace-owning caller can keep one LuDecomposition alive and
  /// refactorise into it, reusing the packed-LU storage across solves.
  LuDecomposition() = default;

  explicit LuDecomposition(Matrix a);

  /// Re-runs the factorisation on a new matrix, reusing the existing
  /// packed-LU and permutation storage when shapes allow.  The
  /// elimination is the same operation sequence as the constructor, so
  /// a refactored decomposition solves bit-identically to a fresh one.
  void refactor(const Matrix& a);

  /// Solves A x = b.  Throws std::invalid_argument on size mismatch.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves A x = b into caller-owned storage (x is resized; b and x
  /// may not alias).  Identical substitution order to solve(), shared
  /// via a common implementation.
  void solve_into(const Vector& b, Vector& x) const;

  /// Solves A X = B column by column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Determinant of A (product of U diagonal with pivot sign).
  [[nodiscard]] double determinant() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  void factorize();

  Matrix lu_;                      // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int pivot_sign_ = 1;
};

/// One-shot convenience: solves A x = b via LU.
[[nodiscard]] Vector solve_linear_system(Matrix a, const Vector& b);

}  // namespace rascal::linalg
