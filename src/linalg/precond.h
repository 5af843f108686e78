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
#include <memory>
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

/// ILU(0): L and U share A's sparsity pattern (no fill-in), stored as
/// one value array parallel to A's col_idx.  Holds a pointer to A for
/// the pattern — A must outlive the preconditioner (both live inside
/// a single solve in practice).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  /// Throws PrecondError [P001]/[P003]/[P004] (see above).
  explicit Ilu0Preconditioner(const CsrMatrix& a);

  void apply(const Vector& r, Vector& z) const override;
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return luval_.capacity() * sizeof(double) +
           diag_.capacity() * sizeof(std::size_t);
  }

 private:
  const CsrMatrix* pattern_;
  std::vector<double> luval_;      // L (unit lower) and U factors in-pattern
  std::vector<std::size_t> diag_;  // index of the diagonal entry per row
};

/// Factory used by the solvers; construction may throw PrecondError.
[[nodiscard]] std::unique_ptr<Preconditioner> make_preconditioner(
    PrecondKind kind, const CsrMatrix& a);

}  // namespace rascal::linalg
