// Per-request fault domain, and the one evaluation path of `rascal_cli
// solve`, `states`, `sweep` and `batch`/`serve`: evaluate() binds a model
// file and solves it under supervised_solve, so one request gets the
// same bits, or the same failure class, from each of them.
//
// A supervised request runs inside three nested guards:
//
//   1. Admission control — before any solver memory is committed, the
//      request's declared state count and transition count are checked
//      against the configured caps, and the number of admitted
//      in-flight solves against the queue cap.  Refused requests are
//      *shed* (a distinct "status":"shed" record), deterministically:
//      admission is decided in request-index order during the serial
//      prep phase, so the same stream sheds the same requests at any
//      RASCAL_THREADS.
//
//   2. Retry with attempt-indexed budget escalation — a transient
//      fault (chaos injection, environmental) retries the identical
//      attempt; genuine nonconvergence first re-runs the same
//      configuration with a doubled iteration budget (a converging
//      trajectory is bit-identical regardless of its cap, so a
//      recovered retry equals the fault-free run byte for byte).
//
//   3. The fallback ladder, the only fallback the solvers have — when
//      a rung keeps failing, the request descends: below the sparse
//      threshold gmres -> bicgstab -> gth (GTH is exact and terminal);
//      above it the preconditioner downgrades ilu0 -> jacobi -> none
//      and finally switches Krylov method, because densifying a
//      10^6-state generator is never an option.  A result recovered on
//      a lower rung carries a "fallback" annotation in its record, and
//      the CLI warns on stderr — degraded answers are never silent.
//
// Everything here is wall-clock-free and RNG-free: the attempt
// schedule of a request is a pure function of the request and the
// options, so retries preserve the engine-wide bit-identity contract
// (oracle-gated by check_retry_consensus).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "io/model_file.h"
#include "resil/cancel.h"
#include "resil/retry.h"

namespace rascal::serve {

struct SupervisionOptions {
  /// Attempt bound and budget escalation (resil/retry.h).
  /// max_attempts counts the first try: 1 disables supervision
  /// retries entirely.
  resil::RetryPolicy retry{/*max_attempts=*/3, /*base_iterations=*/0};

  /// Admission caps (0 = unlimited).  Checked against the *declared*
  /// model size before binding, so an oversized request is refused
  /// for the cost of a map lookup, not an allocation.
  std::size_t admission_states = 0;
  std::size_t admission_nnz = 0;

  /// Bounded in-flight queue: at most this many solve-requiring
  /// requests are admitted per run (0 = unlimited); the rest are shed
  /// in index order.
  std::size_t queue_cap = 0;

  /// Test hook: the first N solve attempts of every request throw a
  /// retryable resil::TransientError before reaching the solver.
  /// Lets the oracle exercise the retry path without global chaos
  /// state.
  std::size_t inject_transient_faults = 0;
};

/// One rung of the fallback ladder.
struct LadderRung {
  ctmc::SteadyStateMethod method = ctmc::SteadyStateMethod::kGth;
  linalg::PrecondKind precond = linalg::PrecondKind::kIlu0;
};

/// Builds the deterministic rung sequence for a request.  Rung 0 is
/// always the requested configuration; `num_states` against the
/// threshold (0 = ctmc::kDefaultSparseThreshold) picks the descent:
/// method substitution below it, preconditioner downgrade above it.
[[nodiscard]] std::vector<LadderRung> fallback_ladder(
    ctmc::SteadyStateMethod method, linalg::PrecondKind precond,
    std::size_t num_states, std::size_t sparse_threshold);

/// Solver configuration of one request, decoupled from the JSONL
/// Request so the check/ oracle can supervise raw chains.
struct SolveSpec {
  ctmc::SteadyStateMethod method = ctmc::SteadyStateMethod::kGth;
  linalg::PrecondKind precond = linalg::PrecondKind::kIlu0;
  std::size_t sparse_threshold = 0;
  std::size_t max_iterations = 0;
  std::size_t gmres_restart = 0;
};

/// Outcome of a supervised solve, with enough provenance to render
/// the record and to let the oracle re-run the final attempt
/// directly.
struct SupervisedSolve {
  ctmc::SteadyState steady;
  std::size_t attempts = 1;    // attempts consumed (1 = first try)
  std::size_t rung = 0;        // final ladder rung index
  LadderRung final_rung;       // configuration that produced `steady`
  std::size_t final_budget = 0;  // max_iterations of the final attempt
  /// Empty when rung 0 succeeded; otherwise the annotation for the
  /// result record ("gth", "precond:jacobi", ...).
  std::string fallback;
};

/// Runs one request under the retry/fallback discipline.  Throws the
/// final failure when every allowed attempt is exhausted (classified
/// by resil::classify); resil::CancelledError always propagates
/// immediately and is never retried.
[[nodiscard]] SupervisedSolve supervised_solve(
    const ctmc::Ctmc& chain, const SolveSpec& spec, ctmc::SolveCache& cache,
    const SupervisionOptions& options,
    const resil::CancellationToken* cancel = nullptr);

/// One request evaluated end to end.
struct Evaluation {
  ctmc::Ctmc chain;                   // the model bound at the overrides
  SupervisedSolve solved;             // the rung that answered, and how
  core::AvailabilityMetrics metrics;  // of `chain` under solved.steady
};

/// Binds `file` at `overrides` (ModelFile::bind: an undeclared name
/// throws), solves it with supervised_solve and computes its metrics.
[[nodiscard]] Evaluation evaluate(
    const io::ModelFile& file, const expr::ParameterSet& overrides,
    const SolveSpec& spec, ctmc::SolveCache& cache,
    const SupervisionOptions& supervision,
    const resil::CancellationToken* cancel = nullptr);

/// Admission verdict for a parsed model: empty string admits, a
/// non-empty string is the shed reason.  Cheap: reads the declared
/// symbolic sizes, never binds.
[[nodiscard]] std::string admission_verdict(const io::ModelFile& file,
                                            const SupervisionOptions& options);

}  // namespace rascal::serve
