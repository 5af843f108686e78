#include "linalg/lu.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace rascal::linalg {

namespace {
constexpr double kSingularThreshold = 1e-300;
}  // namespace

LuDecomposition::LuDecomposition(Matrix a)
    : lu_(std::move(a)), perm_(lu_.rows()) {
  if (!lu_.square()) {
    throw std::invalid_argument("LuDecomposition: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |entry| in column k at/below k.
    std::size_t pivot_row = k;
    double pivot_abs = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > pivot_abs) {
        pivot_abs = v;
        pivot_row = r;
      }
    }
    if (pivot_abs < kSingularThreshold) {
      throw std::domain_error("LuDecomposition: matrix is singular");
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const double pivot = lu_(k, k);
    const double* row_k = &lu_(k, 0);
    for (std::size_t r = k + 1; r < n; ++r) {
      double* row_r = &lu_(r, 0);
      const double factor = row_r[k] / pivot;
      row_r[k] = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        row_r[c] -= factor * row_k[c];
      }
    }
  }
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) {
    throw std::invalid_argument("LuDecomposition::solve: size mismatch");
  }
  // Forward substitution with permuted rhs (L has unit diagonal),
  // writing the intermediate y into x so no scratch vector is needed:
  // position r only reads y[c] for c < r, which is already final.
  const double* lu = lu_.data().data();
  Vector x(n);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[perm_[r]];
    const double* row = lu + r * n;
    for (std::size_t c = 0; c < r; ++c) acc -= row[c] * x[c];
    x[r] = acc;
  }
  // Back substitution, in place over the forward result.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    const double* row = lu + ri * n;
    for (std::size_t c = ri + 1; c < n; ++c) acc -= row[c] * x[c];
    x[ri] = acc / row[ri];
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) {
    throw std::invalid_argument("LuDecomposition::solve: size mismatch");
  }
  Matrix x(n, b.cols());
  Vector col(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    const Vector sol = solve(col);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = sol[r];
  }
  return x;
}

Vector solve_linear_system(Matrix a, const Vector& b) {
  return LuDecomposition(std::move(a)).solve(b);
}

}  // namespace rascal::linalg
