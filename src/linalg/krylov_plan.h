// A Krylov plan: the normalized stationary system of one generator
// pattern, laid out once and refilled for every solve of that pattern.
//
// The Krylov stationary solvers (krylov.h) iterate on A = Q^T with
// the last balance row replaced by the all-ones normalization row, and
// a plan is the only system they run on.  Solving that system from a
// generator Q means transposing Q's CSR arrays and factoring the
// preconditioner, and all of it but the values depends only on where
// Q's entries are.  Uncertainty analysis solves one pattern again at
// every draw, so a plan keeps the pattern-only work:
//
//  - A's CSR pattern (32-bit indices) with the normalization row;
//  - the slot in A's value array of each off-diagonal entry and of
//    each diagonal entry of Q, so a solve scatters its rates without
//    building Q;
//  - the symbolic ILU(0) pass (Ilu0Factors::analyze), run on the first
//    ILU(0) solve of the pattern.
//
// layout() also copies Q's values, so laying a plan out and solving it
// is the one way to solve a CSR generator:
//
//   KrylovPlan plan;
//   plan.layout(0, q);
//   KrylovResult result = gmres_stationary(plan, options);
//
// A later solve of the same pattern writes values() through the slots,
// factors its preconditioner numerically and runs GMRES or BiCGStab.
// check_krylov_plan_consensus holds every such reuse bit-identical to
// a fresh plan laid out from the same generator.
//
// A plan belongs to one SolveWorkspace and so to one worker; it is
// never shared between threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/precond.h"
#include "linalg/sparse.h"

namespace rascal::linalg {

class KrylovPlan {
 public:
  /// The slot of an entry of Q that A does not hold: an entry in
  /// column n-1, whose balance row the normalization row replaces.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// The id given to the last layout(); 0 before any.  The caller
  /// chooses what an id means (ctmc uses a compiled model's pattern
  /// id), and the plan is reusable for exactly the generators that
  /// share the pattern that id names.
  [[nodiscard]] std::uint64_t pattern_id() const noexcept {
    return pattern_id_;
  }

  /// Lays the plan out for the pattern of the generator `q` and fills
  /// values() with A's entries from q.  Throws std::invalid_argument
  /// when q is not square and non-empty, and std::length_error when A
  /// does not fit 32-bit indices.
  void layout(std::uint64_t pattern_id, const CsrMatrix& q);

  /// The slot in values() of each off-diagonal entry of q, in q's
  /// row-major order, and of each row's diagonal entry (kNoSlot where
  /// q stores none or A drops it).
  [[nodiscard]] std::span<const std::uint32_t> off_diagonal_slots()
      const noexcept {
    return off_diagonal_slots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> diagonal_slots()
      const noexcept {
    return diagonal_slots_;
  }

  /// A's values, parallel to its pattern: layout() writes q's entries
  /// and the normalization row's ones, and a caller solving another
  /// generator of the same pattern overwrites the slots above.
  [[nodiscard]] std::span<double> values() noexcept { return values_; }

  [[nodiscard]] std::size_t rows() const noexcept {
    return pattern().rows();
  }

  /// Numeric pass of preconditioner `kind` on the current values.
  /// Throws PrecondError [P002] (jacobi) or [P003]/[P004] (ilu0) when
  /// A cannot be factored (precond.h).
  void factor(PrecondKind kind);

  /// y = A x, accumulating each row in column order (y is resized; x
  /// and y may not alias).
  void multiply_into(const Vector& x, Vector& y) const;

  /// z = M^{-1} r with the preconditioner last factored (z is
  /// resized; r and z may not alias).
  void apply(const Vector& r, Vector& z) const;

  /// A's pattern, as its preconditioners factor it.
  [[nodiscard]] CsrPatternView pattern() const noexcept {
    return {row_ptr_, col_idx_};
  }

  /// Heap bytes held by the plan.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (row_ptr_.capacity() + col_idx_.capacity() +
            off_diagonal_slots_.capacity() + diagonal_slots_.capacity()) *
               sizeof(std::uint32_t) +
           (values_.capacity() + inverse_diagonal_.capacity()) *
               sizeof(double) +
           ilu_.memory_bytes();
  }

 private:
  std::uint64_t pattern_id_ = 0;
  // A's pattern with 32-bit indices.
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
  std::vector<std::uint32_t> off_diagonal_slots_;
  std::vector<std::uint32_t> diagonal_slots_;
  PrecondKind factored_ = PrecondKind::kNone;
  Vector inverse_diagonal_;   // Jacobi
  bool ilu_analyzed_ = false;  // the symbolic pass ran on the pattern
  Ilu0Factors ilu_;
};

}  // namespace rascal::linalg
