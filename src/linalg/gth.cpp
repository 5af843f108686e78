#include "linalg/gth.h"

#include <stdexcept>

namespace rascal::linalg {

void gth_stationary_in(Matrix& q, Vector& pi) {
  if (!q.square()) {
    throw std::invalid_argument("gth_stationary: matrix must be square");
  }
  const std::size_t n = q.rows();
  if (n == 0) {
    throw std::invalid_argument("gth_stationary: empty matrix");
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c && q(r, c) < 0.0) {
        throw std::invalid_argument(
            "gth_stationary: negative off-diagonal rate");
      }
    }
  }
  if (n == 1) {
    pi.assign(1, 1.0);
    return;
  }

  // Elimination phase: censor states n-1, n-2, ..., 1 in turn.
  // After eliminating state k, transitions i->j (i,j < k) gain the
  // contribution of paths through k.  Only additions of nonnegative
  // numbers occur.  Indexed accesses, not hoisted row pointers: the
  // single-base-array form lets the compiler vectorize the update
  // (hand-hoisted pointers measurably pessimize it), and the
  // operation order is part of the bit-identity contract.
  for (std::size_t k = n - 1; k >= 1; --k) {
    double departure = 0.0;  // total rate out of k to states < k
    for (std::size_t c = 0; c < k; ++c) departure += q(k, c);
    if (departure <= 0.0) {
      throw std::domain_error(
          "gth_stationary: zero pivot (chain is reducible)");
    }
    for (std::size_t i = 0; i < k; ++i) {
      const double rate_ik = q(i, k);
      if (rate_ik == 0.0) continue;
      const double scale = rate_ik / departure;
      for (std::size_t j = 0; j < k; ++j) {
        if (j == i) continue;
        q(i, j) += scale * q(k, j);
      }
    }
  }

  // Back-substitution: pi_0 = 1, then unfold the censored states.
  pi.assign(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double departure = 0.0;
    for (std::size_t c = 0; c < k; ++c) departure += q(k, c);
    double inflow = 0.0;
    for (std::size_t i = 0; i < k; ++i) inflow += pi[i] * q(i, k);
    pi[k] = inflow / departure;
  }
  normalize_to_sum_one(pi);
}

Vector gth_stationary(Matrix q) {
  Vector pi;
  gth_stationary_in(q, pi);
  return pi;
}

}  // namespace rascal::linalg
