// Reusable solver scratch storage.
//
// Batch drivers (uncertainty analysis, parametric sweeps, fault
// campaigns) solve thousands of same-shaped systems in a row.  A
// SolveWorkspace owns the dense elimination scratch and vector
// temporaries those solves need, so a worker performs O(1)
// heap allocations over a whole batch instead of O(samples) matrix
// churn.  Reusing a workspace never changes results: the workspace
// only recycles storage, every solve refills it from scratch and runs
// the identical operation sequence (gated by the src/check/ oracle's
// workspace-vs-fresh bit-identity checks).
//
// A workspace is NOT thread-safe; give each worker its own.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "linalg/matrix.h"

namespace rascal::linalg {

class SolveWorkspace {
 public:
  /// Raw dense scratch with whatever shape the last caller left; for
  /// callers that reshape/refill it themselves (e.g. via
  /// Ctmc::write_generator).
  [[nodiscard]] Matrix& dense_storage() noexcept { return dense_; }

  /// Vector scratch slot `slot` resized to n and zero-filled.  Slots
  /// are independent buffers; callers that need several concurrent
  /// temporaries use distinct slots.
  [[nodiscard]] Vector& vec(std::size_t slot, std::size_t n);

  static constexpr std::size_t kVectorSlots = 4;

  /// Sparse-path vector scratch: an open-ended pool of independent
  /// slots (Krylov temporaries, preconditioner scratch), each resized
  /// to n and zero-filled on acquisition.  Kept separate from vec()
  /// so the dense and sparse paths never fight over the same slots
  /// when an escalation runs both in one solve.  The pool is a deque,
  /// so acquiring a new slot never invalidates references to slots
  /// handed out earlier in the same solve.
  [[nodiscard]] Vector& sparse_vec(std::size_t slot, std::size_t n);

  /// Krylov basis scratch: `count` vectors each resized to n and
  /// zero-filled; the pool shrinks logically but keeps its heap
  /// blocks, so GMRES restart cycles reuse one allocation.
  [[nodiscard]] std::vector<Vector>& krylov_basis(std::size_t count,
                                                  std::size_t n);

 private:
  Matrix dense_;
  Vector vectors_[kVectorSlots];
  std::deque<Vector> sparse_vectors_;
  std::vector<Vector> basis_;
};

}  // namespace rascal::linalg
