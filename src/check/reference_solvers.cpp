#include "check/reference_solvers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "ctmc/steady_state.h"
#include "ctmc/validate.h"
#include "linalg/lu.h"

namespace rascal::check {

namespace {

constexpr std::size_t kMaxSweeps = 200000;
constexpr double kTolerance = 1e-13;  // infinity-norm change per sweep

// Counting-sort transpose straight from the CSR arrays; O(nnz).  The
// row-order scan leaves each output row column-sorted, so the arrays
// satisfy the from_parts invariants by construction.
linalg::CsrMatrix transpose(const linalg::CsrMatrix& a) {
  const std::vector<std::size_t>& rp = a.row_ptr();
  const std::vector<std::size_t>& ci = a.col_idx();
  const std::vector<double>& vv = a.values();
  const std::size_t nnz = a.non_zeros();

  std::vector<std::size_t> t_row_ptr(a.cols() + 1, 0);
  for (std::size_t k = 0; k < nnz; ++k) ++t_row_ptr[ci[k] + 1];
  for (std::size_t c = 0; c < a.cols(); ++c) t_row_ptr[c + 1] += t_row_ptr[c];

  std::vector<std::size_t> t_col_idx(nnz);
  std::vector<double> t_values(nnz);
  std::vector<std::size_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t slot = cursor[ci[k]]++;
      t_col_idx[slot] = r;
      t_values[slot] = vv[k];
    }
  }
  return linalg::CsrMatrix::from_parts(a.cols(), a.rows(),
                                       std::move(t_row_ptr),
                                       std::move(t_col_idx),
                                       std::move(t_values));
}

// Exit rates of a CSR generator: exit_r = sum_{c != r} q(r, c).
linalg::Vector exit_rates(const linalg::CsrMatrix& q) {
  const std::vector<std::size_t>& rp = q.row_ptr();
  const std::vector<std::size_t>& ci = q.col_idx();
  const std::vector<double>& vv = q.values();
  linalg::Vector exit(q.rows(), 0.0);
  for (std::size_t r = 0; r < q.rows(); ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] != r) exit[r] += vv[k];
    }
  }
  return exit;
}

// pi Q = 0  <=>  Q^T pi^T = 0.  The last balance equation is replaced
// by the normalization sum(pi) = 1 to obtain a nonsingular system.
linalg::Vector lu_stationary(const ctmc::Ctmc& chain) {
  const std::size_t n = chain.num_states();
  linalg::Matrix a(n, n, 0.0);
  for (const ctmc::Transition& t : chain.transitions()) {
    a(t.to, t.from) = t.rate;
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) = -chain.exit_rate(i);
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  linalg::Vector b(n, 0.0);
  b[n - 1] = 1.0;
  linalg::Vector pi = linalg::LuDecomposition(std::move(a)).solve(b);
  // A direct solve can leave tiny negative round-off in near-zero
  // probabilities; clamp and renormalize.
  for (double& p : pi) {
    if (p < 0.0 && p > -1e-12) p = 0.0;
  }
  linalg::normalize_to_sum_one(pi);
  return pi;
}

}  // namespace

const char* to_string(ReferenceSolver solver) noexcept {
  constexpr const char* kNames[] = {"lu", "power", "gauss-seidel"};
  return kNames[static_cast<std::size_t>(solver)];
}

ReferenceResult power_stationary(const linalg::CsrMatrix& q) {
  if (q.rows() != q.cols() || q.rows() == 0) {
    throw std::invalid_argument("power_stationary: bad generator shape");
  }
  const std::size_t n = q.rows();
  // Uniformization constant strictly above the max exit rate keeps the
  // DTMC aperiodic.
  const linalg::Vector exit = exit_rates(q);
  const double lambda = *std::max_element(exit.begin(), exit.end()) * 1.05 +
                        1e-12;

  ReferenceResult result;
  linalg::Vector pi(n, 1.0 / static_cast<double>(n));
  linalg::Vector piq;   // reused across sweeps: one left_multiply scratch
  linalg::Vector next;  // reused across sweeps: the updated iterate
  for (std::size_t it = 0; it < kMaxSweeps; ++it) {
    // next = pi (I + Q/lambda) = pi + (pi Q)/lambda
    q.left_multiply_into(pi, piq);
    next.resize(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = pi[i] + piq[i] / lambda;
    linalg::normalize_to_sum_one(next);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      delta = std::max(delta, std::abs(next[i] - pi[i]));
    }
    std::swap(pi, next);
    result.iterations = it + 1;
    if (delta < kTolerance) {
      result.converged = true;
      break;
    }
  }
  q.left_multiply_into(pi, piq);
  result.residual = linalg::norm_inf(piq);
  result.pi = std::move(pi);
  return result;
}

ReferenceResult gauss_seidel_stationary(const linalg::CsrMatrix& q) {
  if (q.rows() != q.cols() || q.rows() == 0) {
    throw std::invalid_argument("gauss_seidel_stationary: bad shape");
  }
  const std::size_t n = q.rows();
  const linalg::CsrMatrix qt = transpose(q);  // row j of qt = column j of q

  const linalg::Vector exit = exit_rates(q);  // the diagonal, negated

  ReferenceResult result;
  const std::size_t* t_rp = qt.row_ptr().data();
  const std::size_t* t_ci = qt.col_idx().data();
  const double* t_vv = qt.values().data();

  linalg::Vector pi(n, 1.0 / static_cast<double>(n));
  for (std::size_t it = 0; it < kMaxSweeps; ++it) {
    double delta = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (exit[j] <= 0.0) {
        throw std::domain_error(
            "gauss_seidel_stationary: absorbing state has no stationary "
            "balance equation");
      }
      double inflow = 0.0;
      const std::size_t end = t_rp[j + 1];
      for (std::size_t k = t_rp[j]; k < end; ++k) {
        const std::size_t i = t_ci[k];
        if (i != j) inflow += pi[i] * t_vv[k];
      }
      const double updated = inflow / exit[j];
      delta = std::max(delta, std::abs(updated - pi[j]));
      pi[j] = updated;
    }
    linalg::normalize_to_sum_one(pi);
    result.iterations = it + 1;
    if (delta < kTolerance * linalg::norm_inf(pi)) {
      result.converged = true;
      break;
    }
  }
  linalg::Vector residual_vec;
  q.left_multiply_into(pi, residual_vec);
  result.residual = linalg::norm_inf(residual_vec);
  result.pi = std::move(pi);
  return result;
}

ReferenceResult solve_reference(const ctmc::Ctmc& chain,
                                ReferenceSolver solver) {
  ctmc::throw_if_errors(ctmc::validate_for_steady_state(chain));
  const linalg::CsrMatrix q = chain.sparse_generator();
  if (solver == ReferenceSolver::kLu) {
    ReferenceResult result;
    result.pi = lu_stationary(chain);
    linalg::Vector piq;
    q.left_multiply_into(result.pi, piq);
    result.residual = linalg::norm_inf(piq);
    result.converged = true;
    return result;
  }
  ReferenceResult result = solver == ReferenceSolver::kPower
                               ? power_stationary(q)
                               : gauss_seidel_stationary(q);
  if (!result.converged) {
    throw ctmc::NonConvergenceError(
        std::string("reference ") + to_string(solver) +
        " did not converge within " + std::to_string(result.iterations) +
        " iterations (residual " + std::to_string(result.residual) + ")");
  }
  return result;
}

}  // namespace rascal::check
