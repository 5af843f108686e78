#include "check/expm.h"

#include <cmath>
#include <stdexcept>

#include "linalg/lu.h"

namespace rascal::check {

using linalg::LuDecomposition;
using linalg::Matrix;

namespace {

Matrix add_scaled(const Matrix& a, const Matrix& b, double sb) {
  Matrix out = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) += sb * b(r, c);
  }
  return out;
}

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

// a * b for square matrices of one size.
Matrix multiply(const Matrix& a, const Matrix& b) {
  const std::size_t n = a.rows();
  Matrix out(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      const double x = a(r, k);
      if (x == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) out(r, c) += x * b(k, c);
    }
  }
  return out;
}

double one_norm(const Matrix& a) {
  double best = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    double col = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) col += std::abs(a(r, c));
    best = std::max(best, col);
  }
  return best;
}

}  // namespace

Matrix matrix_exponential(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("matrix_exponential: matrix must be square");
  }
  const std::size_t n = a.rows();

  // Scale so ||A/2^s|| <= 0.5, apply Pade, then square s times.
  const double norm = one_norm(a);
  int s = 0;
  if (norm > 0.5) {
    s = static_cast<int>(std::ceil(std::log2(norm / 0.5)));
  }
  const double scale = std::pow(2.0, -s);
  Matrix x(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) x(r, c) = a(r, c) * scale;
  }

  // [6/6] Pade: N = sum c_k X^k, D = sum (-1)^k c_k X^k, exp ~ D^-1 N.
  static constexpr double kCoeff[] = {1.0,
                                      0.5,
                                      5.0 / 44.0,
                                      1.0 / 66.0,
                                      1.0 / 792.0,
                                      1.0 / 15840.0,
                                      1.0 / 665280.0};
  Matrix power = identity(n);
  Matrix numerator = identity(n);
  Matrix denominator = identity(n);
  for (int k = 1; k <= 6; ++k) {
    power = multiply(power, x);
    numerator = add_scaled(numerator, power, kCoeff[k]);
    denominator =
        add_scaled(denominator, power, (k % 2 == 0 ? 1.0 : -1.0) * kCoeff[k]);
  }
  Matrix result = LuDecomposition(std::move(denominator)).solve(numerator);
  for (int i = 0; i < s; ++i) result = multiply(result, result);
  return result;
}

}  // namespace rascal::check
