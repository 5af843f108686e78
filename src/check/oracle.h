// Differential and statistical oracles: run every independent
// implementation of the same quantity on one model and demand
// agreement.
//
// The repo computes steady-state probabilities four ways (GTH, LU,
// power iteration, Gauss-Seidel), transient distributions two ways
// (uniformization, dense matrix exponential), and availability a
// third way again by Monte Carlo trajectory simulation.  A shared
// bias in one path against hand-derived unit-test constants can pass
// silently; pairwise agreement across *independent* paths cannot.
// Analytic-vs-simulation checks are CI-aware: the analytic value must
// fall inside a widened confidence interval of the estimator, never
// inside a fixed epsilon.
#pragma once

#include <string>
#include <vector>

#include "ctmc/ctmc.h"
#include "linalg/matrix.h"
#include "sim/ctmc_simulator.h"

namespace rascal::check {

/// Outcome of an oracle run: every executed comparison is counted and
/// every violation is recorded as a human-readable line.
struct OracleReport {
  std::size_t checks = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
  /// Appends another report's counts and failures (with a context
  /// prefix) to this one.
  void absorb(const OracleReport& other, const std::string& context);
  /// Records one comparison: |lhs - rhs| <= tolerance.
  void expect_close(const std::string& what, double lhs, double rhs,
                    double tolerance);
};

struct OracleOptions {
  // Absolute tolerance on per-state probabilities and availability
  // when comparing two deterministic solvers.
  double steady_tolerance = 1e-8;
  // Absolute tolerance on transient probabilities (uniformization
  // precision is 1e-12; Pade expm is good to ~1e-12 for scaled norms).
  double transient_tolerance = 1e-8;
  // Analytic-vs-Monte-Carlo checks pass when the analytic value lies
  // within ci_factor times the estimator's 95% CI half-width (plus a
  // small absolute floor for zero-variance corner cases).
  double ci_factor = 4.0;
  double ci_absolute_floor = 1e-9;
  // Include the iterative methods (power, Gauss-Seidel).  Direct-only
  // mode is for stiff chains where power iteration's uniformized
  // spectral gap would need millions of sweeps.
  bool include_iterative = true;
};

/// Runs every applicable steady-state solver on `chain` and checks
/// all pairs against each other (per-state probabilities, availability
/// at threshold 0.5) plus each solution's balance residual ||pi Q||.
[[nodiscard]] OracleReport check_steady_state_consensus(
    const ctmc::Ctmc& chain, const OracleOptions& options = {});

/// Checks every solver against an externally known stationary vector
/// (closed-form birth-death solutions from random_model.h).
[[nodiscard]] OracleReport check_steady_state_against(
    const ctmc::Ctmc& chain, const linalg::Vector& expected,
    const OracleOptions& options = {});

/// Compares uniformization with the dense matrix exponential at time
/// `t`, starting from state 0.
[[nodiscard]] OracleReport check_transient_consensus(
    const ctmc::Ctmc& chain, double t, const OracleOptions& options = {});

/// CI-aware analytic-vs-simulation check: GTH availability must lie
/// inside the simulator's widened confidence interval.
[[nodiscard]] OracleReport check_simulation_consensus(
    const ctmc::Ctmc& chain, const sim::CtmcSimOptions& sim_options,
    const OracleOptions& options = {});

/// Bit-identity gate for the allocation-free solve hot path: solves
/// through a reused (and deliberately dirty) SolveWorkspace and
/// batched multi-RHS interval rewards must all reproduce the
/// fresh-allocation path exactly — tolerance zero —
/// across every steady-state method in `options` and both transient
/// evaluators (distribution and interval reward) at horizon `t`.
[[nodiscard]] OracleReport check_workspace_consensus(
    const ctmc::Ctmc& chain, double t, const OracleOptions& options = {});

/// Differential gate for the sparse Krylov engine: GMRES and BiCGStab
/// under every preconditioner (none, Jacobi, ILU(0)) must agree with
/// the dense GTH reference per-state and on availability, each
/// solution's balance residual must meet tolerance, a chain GTH
/// refuses must be refused by every Krylov variant too, and a solve
/// through a reused (dirty) SolveWorkspace must reproduce the fresh
/// Krylov solve bit-for-bit (tolerance zero).
[[nodiscard]] OracleReport check_krylov_consensus(
    const ctmc::Ctmc& chain, const OracleOptions& options = {});

/// Bit-identity gate for the shared concurrent solve cache: for each
/// steady-state method, the distribution a worker's SolveCache serves
/// on a cold miss, and the one a different worker's SolveCache pulls
/// from the shared tier, must both reproduce the direct
/// solve_steady_state() result exactly — tolerance zero.  Also checks
/// that the shared tier actually recorded the publish and the
/// cross-cache hit (a silently disabled cache would pass bit-identity
/// trivially).
[[nodiscard]] OracleReport check_shared_cache_consensus(
    const ctmc::Ctmc& chain, const OracleOptions& options = {});

/// Bit-identity gate for the serve supervision layer (retry +
/// fallback ladder): a supervised solve that recovers from injected
/// transient faults must reproduce the direct solve_steady_state()
/// result exactly — tolerance zero — for every injected-fault count
/// the retry policy can absorb, while consuming exactly faults+1
/// attempts, staying on rung 0, and carrying no fallback annotation.
/// Exhausting the policy must throw a TransientError (never return a
/// partial result), and the fallback ladder itself must be a pure
/// function of its inputs (same rungs on every call, rung 0 the
/// requested configuration, dense descents ending on exact GTH,
/// sparse descents never densifying).
[[nodiscard]] OracleReport check_retry_consensus(
    const ctmc::Ctmc& chain, const OracleOptions& options = {});

}  // namespace rascal::check
