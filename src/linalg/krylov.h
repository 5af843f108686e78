// Sparse Krylov-subspace solvers: GMRES(m) and BiCGStab for the
// stationary distribution of a CTMC generator.
//
// The dense solvers (gth.h, lu.h) hold an n x n Matrix — 8 n^2 bytes
// — which stops being an option around 10^4 states.  The Krylov
// methods here touch the system only through a CSR matvec, so a
// million-state k-of-n replication model solves in O(nnz) memory.
//
// They solve pi Q = 0, sum(pi) = 1 through the normalized augmented
// system — Q^T with the last balance row replaced by the all-ones
// normalization row, b = e_{n-1} — the sparse analogue of the LU
// reference in check/reference_solvers.h.  A Krylov plan
// (krylov_plan.h) holds that system and its preconditioner, and is the
// only system the methods run on: to solve a CSR generator q, lay a
// plan out for it and solve the plan.
//
// Both methods are right-preconditioned (they solve A M^{-1} y = b,
// x = M^{-1} y), so the residual they monitor is the true residual of
// the original system — no preconditioner-dependent stopping
// surprises.  Like every solver in this codebase, the operation
// sequence is deterministic: single-accumulator dot products and
// matvecs, no reductions whose order depends on thread count, so
// repeated solves (and workspace-reusing solves) are bit-identical.
#pragma once

#include <cstddef>

#include "linalg/krylov_plan.h"
#include "linalg/precond.h"
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

/// Stationary distribution of the generator a laid-out Krylov plan
/// holds in values() (krylov_plan.h): factors options.precond on the
/// plan, then runs restarted GMRES (modified Gram-Schmidt, Givens
/// rotations) or BiCGStab on it from the uniform distribution.  The
/// solution is clamped and normalized exactly like the LU reference.
/// A BiCGStab scalar breakdown stops the solve with `breakdown = true`
/// (and `converged = false`) rather than producing NaNs.  Throws
/// PrecondError when the preconditioner rejects the system, and
/// std::invalid_argument when the plan has no layout.
[[nodiscard]] KrylovResult gmres_stationary(KrylovPlan& plan,
                                            const KrylovOptions& options = {});
[[nodiscard]] KrylovResult bicgstab_stationary(
    KrylovPlan& plan, const KrylovOptions& options = {});

}  // namespace rascal::linalg
