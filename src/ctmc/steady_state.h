// Steady-state solution of an irreducible CTMC.
#pragma once

#include <stdexcept>
#include <string>

#include "ctmc/ctmc.h"
#include "ctmc/validate.h"
#include "linalg/krylov.h"
#include "linalg/matrix.h"
#include "linalg/precond.h"
#include "linalg/workspace.h"
#include "resil/cancel.h"
#include "resil/retry.h"

namespace rascal::ctmc {

/// The production steady-state solvers: one dense method and one
/// sparse family.  The reference solvers that the differential oracles
/// check them against (LU, power iteration, Gauss-Seidel) live in
/// src/check/reference_solvers.h.
enum class SteadyStateMethod {
  kGth,       // Grassmann-Taksar-Heyman elimination (default; dense)
  kGmres,     // sparse GMRES(m) on the normalized augmented system
  kBiCgStab,  // sparse BiCGStab on the same system
};

/// The method's name as the CLI, the request schema and the telemetry
/// counters spell it: "gth", "gmres", "bicgstab".
[[nodiscard]] const char* to_string(SteadyStateMethod method) noexcept;

/// Inverse of to_string(); returns false and leaves `out` untouched
/// for any other name, including the reference solvers' "lu", "power"
/// and "gauss-seidel".
[[nodiscard]] bool parse_method(const std::string& name,
                                SteadyStateMethod& out) noexcept;

/// Chains with more states than this never materialize a dense n x n
/// Matrix: a GTH request re-routes to the sparse GMRES path, and the
/// serve fallback ladder descends to dense GTH only below it.
/// 2048 states is the point where the dense image (33 MB) and the
/// O(n^3) elimination stop being a sensible per-sample cost.
inline constexpr std::size_t kDefaultSparseThreshold = 2048;

/// An iterative solve exhausted its iteration budget without meeting
/// tolerance, or a Krylov solve broke down or had its preconditioner
/// reject the pattern.  Retryable: a supervisor can escalate the budget
/// or descend the fallback ladder (resil/retry.h, serve/supervise.h).
class NonConvergenceError : public std::runtime_error,
                            public resil::ErrorClassTag {
 public:
  using std::runtime_error::runtime_error;
  [[nodiscard]] resil::ErrorClass error_class() const noexcept override {
    return resil::ErrorClass::kNonConvergence;
  }
};

/// Per-solve resource budget.
struct SolveControl {
  /// Caps the iteration count of the Krylov methods (0 = library
  /// default).  Replaces unbounded loops for batch runs.
  std::size_t max_iterations = 0;

  /// Cooperative cancellation: an in-flight Krylov solve polls the
  /// token and raises resil::CancelledError when it fires.
  const resil::CancellationToken* cancel = nullptr;

  /// Read by nothing: a failed Krylov solve always throws, and the
  /// serve fallback ladder is the only fallback.  Kept only because the
  /// benchmark harness (e2ebench/workloads.cpp) still writes it.
  bool escalate = false;

  /// Dense/sparse boundary (0 = kDefaultSparseThreshold): above this
  /// many states a kGth request is re-routed to the sparse GMRES path
  /// instead of building a dense Matrix.  The result records the
  /// re-route in `effective_method`.
  std::size_t sparse_threshold = 0;

  /// Preconditioner for the Krylov methods (kGmres/kBiCgStab).
  linalg::PrecondKind precond = linalg::PrecondKind::kIlu0;

  /// GMRES(m) restart length (0 = library default).
  std::size_t gmres_restart = 0;

  /// Optional reusable scratch storage (dense elimination matrix,
  /// residual and Krylov vectors, and the Krylov plan of the last
  /// sparse solve).  Batch engines give each worker its own workspace
  /// so repeated solves stop allocating, and draws of one compiled
  /// model stop rebuilding their Krylov system; results are
  /// bit-identical with and without one (oracle-gated).  Not owned.
  linalg::SolveWorkspace* workspace = nullptr;
};

struct SteadyState {
  linalg::Vector probabilities;
  SteadyStateMethod method = SteadyStateMethod::kGth;
  /// Method that actually produced the numbers: differs from `method`
  /// when a GTH request was re-routed to the sparse path (state count
  /// above SolveControl::sparse_threshold).
  SteadyStateMethod effective_method = SteadyStateMethod::kGth;
  std::size_t iterations = 0;  // 0 for GTH
  double residual = 0.0;       // ||pi Q||_inf

  [[nodiscard]] double probability(StateId id) const {
    return probabilities.at(id);
  }
};

/// Solves pi Q = 0, sum(pi) = 1.  The stationary distribution must
/// be unique (exactly one closed communicating class; transient
/// states are tolerated and get probability zero): by default a
/// fail-fast structural check (validate.h, codes R010/R013) rejects
/// ill-posed chains with a diagnostics-carrying lint::LintError
/// (a std::domain_error) before any numerics run; a chain that a
/// compiled SymbolicCtmc bound carries the check's verdict from
/// compile time (Ctmc::steady_state_prevalidated).  Pass
/// Validation::kOff to skip the check — GTH then raises a plain
/// std::domain_error on a singular system and a Krylov method fails
/// to converge.
/// GTH runs for kGth at or below the sparse threshold; GMRES or
/// BiCGStab runs for kGmres/kBiCgStab and for a kGth request above
/// it.  A Krylov solve that does not converge, breaks down or has its
/// preconditioner reject the pattern raises NonConvergenceError; a
/// cancelled one raises resil::CancelledError.
[[nodiscard]] SteadyState solve_steady_state(
    const Ctmc& chain, SteadyStateMethod method = SteadyStateMethod::kGth,
    Validation validation = Validation::kOn,
    const SolveControl& control = {});

/// The sparse branch of solve_steady_state: BiCGStab for kBiCgStab,
/// GMRES otherwise, on the chain's normalized stationary system,
/// through the Krylov plan of options.workspace (a local workspace's
/// when null).  The plan is reused when it was laid out for the
/// chain's nonzero Ctmc::pattern_id, and laid out again from
/// chain.sparse_generator() otherwise; either way a solve scatters the
/// chain's rates into it.  Bit-identical to linalg::gmres_stationary /
/// bicgstab_stationary(plan, options) on a fresh plan laid out from
/// chain.sparse_generator() in the distribution, iteration count and
/// residual, and throws what they throw, linalg::PrecondError included
/// (gated by check::check_krylov_plan_consensus).  No structural check
/// runs.
[[nodiscard]] linalg::KrylovResult krylov_stationary(
    const Ctmc& chain, SteadyStateMethod method,
    const linalg::KrylovOptions& options);

}  // namespace rascal::ctmc
