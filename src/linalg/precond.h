// Preconditioners for the sparse Krylov solvers (krylov.h).
//
// A preconditioner M approximates A so that M^{-1} r is cheap to
// apply; GMRES/BiCGStab converge in far fewer matvecs on M^{-1}A-like
// systems than on A itself.  Two classic choices are provided:
//
//  - Jacobi: M = diag(A).  Free to build, helps when the rows of A
//    are badly scaled (an availability generator mixes rates spanning
//    many orders of magnitude with a unit normalization row).
//  - ILU(0): incomplete LU restricted to the sparsity pattern of A.
//    Much stronger on the stiff, nearly-triangular generators that
//    k-of-n replication models produce; costs one extra copy of the
//    value array.
//
// The Krylov plan (krylov_plan.h) factors and applies both on its
// own system; this header holds the pieces it uses.  Factoring
// validates the pattern and rejects structurally unusable systems
// with a PrecondError carrying a stable lint-style code (catalogued on
// PrecondError below) instead of dividing by zero at apply time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/sparse.h"
#include "resil/retry.h"

namespace rascal::linalg {

enum class PrecondKind {
  kNone,    // identity: plain (un)preconditioned Krylov
  kJacobi,  // diagonal scaling
  kIlu0,    // incomplete LU on the pattern of A
};

/// The preconditioner's name as the CLI and the request schema spell
/// it: "none", "jacobi", "ilu0".
[[nodiscard]] const char* precond_name(PrecondKind kind) noexcept;

/// Inverse of precond_name(); returns false and leaves `out`
/// untouched for any other name.
[[nodiscard]] bool parse_precond(const std::string& name,
                                 PrecondKind& out) noexcept;

/// Structural rejection while a preconditioner is factored.  Stable
/// diagnostic codes, rendered as "[Pnnn] message":
///   P002  jacobi: zero or missing diagonal entry
///   P003  ilu0: empty row (state with no entries at all)
///   P004  ilu0: zero pivot (missing diagonal, or eliminated to zero)
class PrecondError : public std::invalid_argument,
                     public resil::ErrorClassTag {
 public:
  PrecondError(std::string code, const std::string& message)
      : std::invalid_argument("[" + code + "] " + message),
        code_(std::move(code)) {}

  [[nodiscard]] const std::string& code() const noexcept { return code_; }

  /// Retryable: the fallback ladder downgrades the preconditioner
  /// (ilu0 -> jacobi -> none) instead of failing the request.
  [[nodiscard]] resil::ErrorClass error_class() const noexcept override {
    return resil::ErrorClass::kPrecond;
  }

 private:
  std::string code_;
};

/// Jacobi's entry for row `row` of A: 1 / d for the diagonal entry d
/// (0 when the row stores none).  Throws PrecondError [P002] when d
/// is zero or not finite.
[[nodiscard]] double jacobi_inverse(double d, std::size_t row);

/// ILU(0) factors: L and U share a pattern's sparsity (no fill-in),
/// stored as one value array parallel to its col_idx.  One row-wise
/// elimination decides which updates happen and in which order.  The
/// symbolic pass, analyze(), runs it once per pattern: it finds each
/// row's diagonal and records every update that stays inside the
/// pattern.  The numeric pass, factor(), replays those updates on each
/// new value array, arithmetic only, so a pattern refactored with new
/// values (the Krylov plan, krylov_plan.h) pays for the elimination's
/// bookkeeping once.  Every call takes the pattern analyze() saw.
class Ilu0Factors {
 public:
  /// Symbolic pass.  Never throws on a pattern: the first row that
  /// cannot be factored (no entries at all, or no diagonal) is
  /// recorded, and factor() raises its error when it reaches that
  /// row.  Throws std::length_error when the pattern has 2^32 - 1 or
  /// more entries.
  void analyze(CsrPatternView pattern);

  /// Numeric pass over `values`, parallel to the pattern's col_idx,
  /// replaying the last analyze().  Throws PrecondError [P003]/[P004]
  /// (see above) at the first row that cannot be factored.
  void factor(CsrPatternView pattern, std::span<const double> values);

  /// z = (LU)^{-1} r with the last factored values (z is resized; r
  /// and z may not alias).
  void solve(CsrPatternView pattern, const Vector& r, Vector& z) const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return lu_.capacity() * sizeof(double) +
           (diag_.capacity() + updates_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  // Eliminates row i symbolically: records its updates and finds its
  // diagonal.  Returns false and records row i as the first
  // unfactorable one when it has no entries or no diagonal.
  bool eliminate_row(CsrPatternView pattern, std::size_t i,
                     std::vector<std::uint32_t>& iw);
  // Throws row i's PrecondError, if it has one, once it is eliminated.
  void check_row(CsrPatternView pattern, std::size_t i) const;

  std::vector<std::uint32_t> diag_;  // position of each row's diagonal
  // For each strictly-lower entry in elimination order: the number of
  // its updates, then that many (target, source) position pairs.
  std::vector<std::uint32_t> updates_;
  std::size_t bad_row_ = 0;  // first unfactorable row; rows() when none
  std::vector<double> lu_;   // L (unit lower) and U factors in-pattern
};

}  // namespace rascal::linalg
