// Reference steady-state solvers: the independent second opinions the
// differential oracles check production GTH against.
//   - LU: a direct solve of pi Q = 0 with the last balance equation
//     replaced by sum(pi) = 1, through linalg::LuDecomposition;
//   - power iteration on the uniformized DTMC;
//   - Gauss-Seidel sweeps on the balance equations.
// Only oracles, tests and the bench_solvers ablation call them, so
// they take no workspace, poll no cancellation token and carry no
// chaos hook.
#pragma once

#include <cstddef>

#include "ctmc/ctmc.h"
#include "linalg/sparse.h"

namespace rascal::check {

enum class ReferenceSolver { kLu, kPower, kGaussSeidel };

/// "lu", "power", "gauss-seidel": the names the oracle reports use,
/// and names ctmc::parse_method refuses.
[[nodiscard]] const char* to_string(ReferenceSolver solver) noexcept;

struct ReferenceResult {
  linalg::Vector pi;
  std::size_t iterations = 0;  // sweeps; 0 for LU
  double residual = 0.0;       // ||pi Q||_inf
  bool converged = false;
};

/// Power iteration on P = I + Q/Lambda, Lambda slightly above the
/// largest exit rate, for a CSR generator with its diagonal present.
/// Stops when a sweep moves no entry by 1e-13, or after 200,000 sweeps
/// with converged = false.
[[nodiscard]] ReferenceResult power_stationary(const linalg::CsrMatrix& q);

/// Gauss-Seidel sweeps on pi Q = 0, normalized after each sweep, under
/// the same stopping rule relative to max(pi).  Throws
/// std::domain_error on an absorbing state.
[[nodiscard]] ReferenceResult gauss_seidel_stationary(
    const linalg::CsrMatrix& q);

/// Solves `chain` with `solver` after the structural check that
/// solve_steady_state runs.  LU raises std::domain_error on a singular
/// system; an iterative reference that runs out of sweeps raises
/// ctmc::NonConvergenceError.
[[nodiscard]] ReferenceResult solve_reference(const ctmc::Ctmc& chain,
                                              ReferenceSolver solver);

}  // namespace rascal::check
