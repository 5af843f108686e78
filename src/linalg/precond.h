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
// Construction validates the pattern and rejects structurally
// unusable matrices with a PrecondError carrying a stable lint-style
// code (catalogued on PrecondError below) instead of dividing by
// zero at apply time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Structural rejection during preconditioner construction.  Stable
/// diagnostic codes, rendered as "[Pnnn] message":
///   P001  matrix is not square
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

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M^{-1} r (z is resized; r and z may not alias).  The
  /// operation sequence is fixed per construction, so repeated
  /// applies are bit-identical.
  virtual void apply(const Vector& r, Vector& z) const = 0;

  /// Heap bytes held by the factorization, for the sparse-vs-dense
  /// memory accounting asserted in tests.
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;
};

/// M = I; lets the solvers run one unconditional code path.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vector& r, Vector& z) const override;
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return 0;
  }
};

class JacobiPreconditioner final : public Preconditioner {
 public:
  /// Throws PrecondError [P001]/[P002] (see above).
  explicit JacobiPreconditioner(const CsrMatrix& a);

  void apply(const Vector& r, Vector& z) const override;
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return inv_diag_.capacity() * sizeof(double);
  }

 private:
  Vector inv_diag_;
};

/// Jacobi's entry for row `row` of A: 1 / d for the diagonal entry d
/// (0 when the row stores none).  Throws PrecondError [P002] when d
/// is zero or not finite.
[[nodiscard]] double jacobi_inverse(double d, std::size_t row);

/// ILU(0) factors: L and U share a pattern's sparsity (no fill-in),
/// stored as one value array parallel to its col_idx.  One row-wise
/// elimination decides which updates happen and in which order.  A
/// pattern refactored with new values (the Krylov plan,
/// krylov_plan.h) runs it once as a symbolic pass, analyze(), which
/// finds each row's diagonal and records every update that stays
/// inside the pattern; the numeric pass, factor(), then replays those
/// updates on each new value array, arithmetic only.  A matrix
/// factored once (Ilu0Preconditioner) runs the elimination with the
/// arithmetic in place of the recording, factor_once(), which saves
/// writing and rereading the record.  Either way the operations and
/// their order are the same, so the factors are the same bits.  Every
/// call takes the pattern the elimination saw; Index is std::uint32_t
/// for the plan and std::size_t for a CsrMatrix.
class Ilu0Factors {
 public:
  /// Symbolic pass.  Never throws on a pattern: the first row that
  /// cannot be factored (no entries at all, or no diagonal) is
  /// recorded, and factor() raises its error when it reaches that
  /// row.  Throws std::length_error when the pattern has 2^32 - 1 or
  /// more entries.
  template <typename Index>
  void analyze(CsrPatternView<Index> pattern);

  /// Numeric pass over `values`, parallel to the pattern's col_idx,
  /// replaying the last analyze().  Throws PrecondError [P003]/[P004]
  /// (see above) at the first row that cannot be factored.
  template <typename Index>
  void factor(CsrPatternView<Index> pattern, std::span<const double> values);

  /// The elimination with its arithmetic done in place: factor()'s
  /// result and exceptions without a symbolic pass, and nothing for a
  /// later factor() to replay.
  template <typename Index>
  void factor_once(CsrPatternView<Index> pattern,
                   std::span<const double> values);

  /// z = (LU)^{-1} r with the last factored values (z is resized; r
  /// and z may not alias).
  template <typename Index>
  void solve(CsrPatternView<Index> pattern, const Vector& r, Vector& z) const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return lu_.capacity() * sizeof(double) +
           (diag_.capacity() + updates_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  template <typename Index>
  void start(CsrPatternView<Index> pattern);
  // Eliminates row i: records its updates (kFactor false) or applies
  // them to lu_ (kFactor true), and finds its diagonal.  Returns false
  // and records row i as the first unfactorable one when it has no
  // entries or no diagonal.
  template <bool kFactor, typename Index>
  bool eliminate_row(CsrPatternView<Index> pattern, std::size_t i,
                     std::vector<std::uint32_t>& iw);
  // Throws row i's PrecondError, if it has one, once it is eliminated.
  template <typename Index>
  void check_row(CsrPatternView<Index> pattern, std::size_t i) const;

  std::vector<std::uint32_t> diag_;  // position of each row's diagonal
  // For each strictly-lower entry in elimination order: the number of
  // its updates, then that many (target, source) position pairs.
  std::vector<std::uint32_t> updates_;
  std::size_t bad_row_ = 0;  // first unfactorable row; rows() when none
  std::vector<double> lu_;   // L (unit lower) and U factors in-pattern
};

/// ILU(0) of A as a preconditioner.  Holds a pointer to A for the
/// pattern — A must outlive the preconditioner (both live inside a
/// single solve in practice).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  /// Throws PrecondError [P001]/[P003]/[P004] (see above).
  explicit Ilu0Preconditioner(const CsrMatrix& a);

  void apply(const Vector& r, Vector& z) const override;
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return factors_.memory_bytes();
  }

 private:
  const CsrMatrix* pattern_;
  Ilu0Factors factors_;
};

/// Factory used by the solvers; construction may throw PrecondError.
[[nodiscard]] std::unique_ptr<Preconditioner> make_preconditioner(
    PrecondKind kind, const CsrMatrix& a);

}  // namespace rascal::linalg
