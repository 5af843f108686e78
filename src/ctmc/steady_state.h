// Steady-state solution of an irreducible CTMC.
#pragma once

#include <stdexcept>
#include <string>

#include "ctmc/ctmc.h"
#include "ctmc/validate.h"
#include "linalg/matrix.h"
#include "linalg/precond.h"
#include "linalg/workspace.h"
#include "resil/cancel.h"
#include "resil/retry.h"

namespace rascal::ctmc {

enum class SteadyStateMethod {
  kGth,          // Grassmann-Taksar-Heyman elimination (default; stable)
  kLu,           // direct solve of pi Q = 0 with normalization row
  kPower,        // power iteration on the uniformized chain
  kGaussSeidel,  // Gauss-Seidel sweeps on the balance equations
  kGmres,        // sparse GMRES(m) on the normalized augmented system
  kBiCgStab,     // sparse BiCGStab on the same system
};

/// The method's name as the CLI, the request schema and the telemetry
/// counters spell it: "gth", "lu", "power", "gauss-seidel", "gmres",
/// "bicgstab".
[[nodiscard]] const char* to_string(SteadyStateMethod method) noexcept;

/// Inverse of to_string(); returns false and leaves `out` untouched
/// for any other name.
[[nodiscard]] bool parse_method(const std::string& name,
                                SteadyStateMethod& out) noexcept;

/// Chains with more states than this never materialize a dense n x n
/// Matrix: dense method requests re-route to the sparse GMRES path,
/// and Krylov nonconvergence escalates to dense GTH only below it.
/// 2048 states is the point where the dense image (33 MB) and the
/// O(n^3) eliminations stop being a sensible per-sample cost.
inline constexpr std::size_t kDefaultSparseThreshold = 2048;

/// An iterative method exhausted its iteration budget without meeting
/// tolerance (and escalation was disabled or also failed).
/// Retryable: a supervisor can escalate the budget or descend the
/// fallback ladder (resil/retry.h).
class NonConvergenceError : public std::runtime_error,
                            public resil::ErrorClassTag {
 public:
  using std::runtime_error::runtime_error;
  [[nodiscard]] resil::ErrorClass error_class() const noexcept override {
    return resil::ErrorClass::kNonConvergence;
  }
};

/// Per-solve resource budget and escalation policy.
struct SolveControl {
  /// Caps the iteration count of iterative methods (0 = library
  /// default).  Replaces unbounded loops for batch runs.
  std::size_t max_iterations = 0;

  /// Cooperative cancellation: an in-flight iterative solve polls the
  /// token and raises resil::CancelledError when it fires.
  const resil::CancellationToken* cancel = nullptr;

  /// Fallback cascade: LU escalates to GTH when the direct solve is
  /// near-singular (throws or leaves a large residual); power /
  /// Gauss-Seidel escalate to GTH on nonconvergence instead of
  /// throwing.  The result records `escalated = true` and keeps the
  /// originally requested method for reporting.  The cascade crosses
  /// the dense/sparse boundary in both directions: a Krylov solve
  /// that fails to converge (or whose preconditioner rejects the
  /// pattern) escalates to dense GTH when the state count fits under
  /// `sparse_threshold`, and raises NonConvergenceError when the
  /// chain is too large for any dense fallback.
  bool escalate = false;

  /// Dense/sparse boundary (0 = kDefaultSparseThreshold): above this
  /// many states, kGth/kLu requests are re-routed to the sparse GMRES
  /// path instead of building a dense Matrix, and escalation refuses
  /// to densify.  The result records the re-route in
  /// `effective_method`.
  std::size_t sparse_threshold = 0;

  /// Preconditioner for the Krylov methods (kGmres/kBiCgStab).
  linalg::PrecondKind precond = linalg::PrecondKind::kIlu0;

  /// GMRES(m) restart length (0 = library default).
  std::size_t gmres_restart = 0;

  /// Optional reusable scratch storage (dense elimination matrix, LU
  /// factors, residual vectors).  Batch drivers give each worker its
  /// own workspace so repeated solves stop allocating; results are
  /// bit-identical with and without one (oracle-gated).  Not owned.
  linalg::SolveWorkspace* workspace = nullptr;
};

struct SteadyState {
  linalg::Vector probabilities;
  SteadyStateMethod method = SteadyStateMethod::kGth;
  /// Method that actually produced the numbers: differs from `method`
  /// when a dense request was re-routed to the sparse path (state
  /// count above SolveControl::sparse_threshold).
  SteadyStateMethod effective_method = SteadyStateMethod::kGth;
  std::size_t iterations = 0;  // 0 for direct methods
  double residual = 0.0;       // ||pi Q||_inf
  bool escalated = false;      // fell back to GTH (see SolveControl)

  [[nodiscard]] double probability(StateId id) const {
    return probabilities.at(id);
  }
};

/// Solves pi Q = 0, sum(pi) = 1.  The stationary distribution must
/// be unique (exactly one closed communicating class; transient
/// states are tolerated and get probability zero): by default a
/// fail-fast structural check (validate.h, codes R010/R013) rejects
/// ill-posed chains with a diagnostics-carrying lint::LintError
/// (a std::domain_error) before any numerics run.  Pass
/// Validation::kOff to skip the check — direct methods then raise a
/// plain std::domain_error on singular systems and iterative methods
/// fail to converge (reported via residual).
/// Iterative nonconvergence raises NonConvergenceError (or escalates
/// to GTH when control.escalate is set); a cancelled solve raises
/// resil::CancelledError and never escalates.
[[nodiscard]] SteadyState solve_steady_state(
    const Ctmc& chain, SteadyStateMethod method = SteadyStateMethod::kGth,
    Validation validation = Validation::kOn,
    const SolveControl& control = {});

}  // namespace rascal::ctmc
