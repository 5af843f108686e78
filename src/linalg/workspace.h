// Reusable solver scratch storage.
//
// Batch drivers (uncertainty analysis, parametric sweeps, fault
// campaigns) solve thousands of same-shaped systems in a row.  A
// SolveWorkspace owns the dense elimination scratch, the vector
// temporaries and the Krylov plan those solves need, so a worker
// performs O(1) heap allocations over a whole batch instead of
// O(samples) matrix churn.  Reusing a workspace never changes
// results: the workspace recycles storage and pattern-only work, every
// solve refills the values and runs the identical operation sequence
// (gated by the src/check/ oracle's workspace-vs-fresh and reused-
// plan-vs-fresh-plan bit-identity checks).
//
// A workspace is NOT thread-safe; give each worker its own.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "linalg/krylov_plan.h"
#include "linalg/matrix.h"

namespace rascal::linalg {

class SolveWorkspace {
 public:
  /// Raw dense scratch with whatever shape the last caller left; for
  /// callers that reshape/refill it themselves (e.g. via
  /// Ctmc::write_generator).
  [[nodiscard]] Matrix& dense_storage() noexcept { return dense_; }

  /// Vector scratch: an open-ended pool of independent slots (Krylov
  /// temporaries, preconditioner scratch, the residual, uniformization
  /// iterates), each resized to n and zero-filled on acquisition.
  /// Callers that need several concurrent temporaries use distinct
  /// slots.  The pool is a deque, so acquiring a new slot never
  /// invalidates references to slots handed out earlier in the same
  /// solve.
  [[nodiscard]] Vector& sparse_vec(std::size_t slot, std::size_t n);

  /// Krylov basis scratch: at least `count` vectors, left at whatever
  /// size and contents the last solve gave them.  GMRES sizes each one
  /// when it first writes it and never reads a vector it has not
  /// written, so a solve that converges in 12 of 61 basis vectors
  /// neither zero-fills nor allocates the other 49.
  [[nodiscard]] std::vector<Vector>& krylov_basis(std::size_t count);

  /// The Krylov plan of the last sparse stationary solve through this
  /// workspace (krylov_plan.h), the system that solve ran on: reused
  /// while the patterns match, laid out again otherwise.
  [[nodiscard]] KrylovPlan& krylov_plan() noexcept { return plan_; }

 private:
  Matrix dense_;
  std::deque<Vector> sparse_vectors_;
  std::vector<Vector> basis_;
  KrylovPlan plan_;
};

}  // namespace rascal::linalg
