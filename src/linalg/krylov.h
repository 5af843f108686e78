// Sparse Krylov-subspace solvers: GMRES(m) and BiCGStab.
//
// The dense solvers (gth.h, lu.h) hold an n x n Matrix — 8 n^2 bytes
// — which stops being an option around 10^4 states.  The Krylov
// methods here touch A only through a CSR matvec, so a million-state
// k-of-n replication model solves in O(nnz) memory.
//
// Both methods are right-preconditioned (they solve A M^{-1} y = b,
// x = M^{-1} y), so the residual they monitor is the true residual of
// the original system — no preconditioner-dependent stopping
// surprises.  Like every solver in this codebase, the operation
// sequence is deterministic: single-accumulator dot products and
// matvecs, no reductions whose order depends on thread count, so
// repeated solves (and workspace-reusing solves) are bit-identical.
//
// The stationary wrappers solve pi Q = 0, sum(pi) = 1 through the
// normalized augmented system — Q^T with the last balance row
// replaced by the all-ones normalization row, b = e_{n-1} — the
// sparse analogue of the LU reference in check/reference_solvers.h.
#pragma once

#include <cstddef>

#include "linalg/krylov_plan.h"
#include "linalg/precond.h"
#include "linalg/sparse.h"
#include "linalg/workspace.h"
#include "resil/cancel.h"

namespace rascal::linalg {

struct KrylovOptions {
  /// Total matvec budget across all restarts/iterations.
  std::size_t max_iterations = 20000;

  /// GMRES(m) inner subspace dimension before a restart (ignored by
  /// BiCGStab).  Memory is at most (restart + 1) basis vectors of
  /// length n; a vector is sized when GMRES first reaches it.
  std::size_t restart = 60;

  /// Convergence: ||b - A x||_2 <= tolerance * ||b||_2.
  double tolerance = 1e-12;

  PrecondKind precond = PrecondKind::kJacobi;

  /// Cooperative cancellation, polled once per Krylov iteration (every
  /// matvec); fires as `cancelled = true`, never as nonconvergence.
  const resil::CancellationToken* cancel = nullptr;

  /// Optional reusable scratch (basis vectors, Hessenberg storage,
  /// preconditioner temporaries).  Results are bit-identical with and
  /// without one.  Not owned.
  SolveWorkspace* workspace = nullptr;
};

struct KrylovResult {
  Vector x;
  std::size_t iterations = 0;  // matvecs with A
  double residual = 0.0;       // final true ||b - A x||_2
  bool converged = false;
  bool cancelled = false;  // stopped by options.cancel
  bool breakdown = false;  // BiCGStab scalar recurrence broke down
};

/// Restarted GMRES with modified Gram-Schmidt and Givens rotations,
/// started from x = 0.
/// Throws std::invalid_argument on shape mismatch and PrecondError
/// when the preconditioner rejects A's pattern.
[[nodiscard]] KrylovResult gmres(const CsrMatrix& a, const Vector& b,
                                 const KrylovOptions& options = {});

/// BiCGStab; a detected scalar breakdown stops the solve with
/// `breakdown = true` (and `converged = false`) rather than producing
/// NaNs.  Same exceptions as gmres().
[[nodiscard]] KrylovResult bicgstab(const CsrMatrix& a, const Vector& b,
                                    const KrylovOptions& options = {});

/// The normalized augmented stationary system for a generator Q (see
/// file comment).  O(nnz + n); the returned matrix has one fully
/// dense row (the normalization row).
[[nodiscard]] CsrMatrix stationary_system(const CsrMatrix& q);

/// Stationary distribution of the CTMC generator Q via GMRES /
/// BiCGStab on the augmented system, started from the uniform
/// distribution; the solution is clamped and normalized exactly like
/// the LU reference.  Builds the system and the preconditioner anew
/// on every call.
[[nodiscard]] KrylovResult gmres_stationary(const CsrMatrix& q,
                                            const KrylovOptions& options = {});
[[nodiscard]] KrylovResult bicgstab_stationary(
    const CsrMatrix& q, const KrylovOptions& options = {});

/// The same solves on a laid-out Krylov plan whose values() hold the
/// generator's entries (krylov_plan.h): only the numeric
/// factorization and the method run.  For a plan laid out for Q and
/// filled with Q's values, bit-identical to the overloads above:
/// same distribution, iteration count and residual, and the same
/// exceptions.  Throws std::invalid_argument when the plan has no
/// layout.
[[nodiscard]] KrylovResult gmres_stationary(KrylovPlan& plan,
                                            const KrylovOptions& options = {});
[[nodiscard]] KrylovResult bicgstab_stationary(
    KrylovPlan& plan, const KrylovOptions& options = {});

}  // namespace rascal::linalg
