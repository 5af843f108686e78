// Transient (time-dependent) solution by uniformization (Jensen's
// method): pi(t) = sum_k PoissonPmf(Lambda t; k) * pi(0) P^k with
// P = I + Q/Lambda.  Also computes the expected accumulated reward
// over [0, t], which for 0/1 rewards is the interval availability the
// paper's companion reference [18] studies.
#pragma once

#include "ctmc/ctmc.h"
#include "linalg/matrix.h"
#include "linalg/workspace.h"
#include "resil/cancel.h"

namespace rascal::ctmc {

struct TransientOptions {
  double precision = 1e-12;          // tail mass left untruncated
  std::size_t max_terms = 20000000;  // hard cap on summation length
  // Fail fast with a diagnostics-carrying lint::LintError when the
  // Poisson truncation point provably exceeds max_terms (see
  // validate.h), instead of summing millions of terms first.
  bool validate = true;
  // Optional cooperative cancellation; polled every ~128 Poisson terms
  // and raises resil::CancelledError when it fires mid-summation.
  const resil::CancellationToken* cancel = nullptr;
  // Optional reusable scratch for the per-term vector temporaries, so
  // batch drivers stop allocating inside the Poisson summation.
  // Results are bit-identical with and without one.  Not owned.
  linalg::SolveWorkspace* workspace = nullptr;
};

struct TransientResult {
  linalg::Vector probabilities;  // pi(t)
  std::size_t terms = 0;         // Poisson terms accumulated
};

/// Distribution at time t >= 0 starting from `initial` (must be a
/// probability vector of matching size).  Throws std::invalid_argument
/// on bad input; lint::LintError (code R032) up front when the
/// horizon provably needs more than max_terms Poisson terms (disable
/// via TransientOptions::validate); and std::runtime_error when the
/// summation still overruns max_terms at run time.
[[nodiscard]] TransientResult transient_distribution(
    const Ctmc& chain, const linalg::Vector& initial, double t,
    const TransientOptions& options = {});

struct IntervalRewardResult {
  double accumulated_reward = 0.0;  // E[ integral_0^t reward(X_u) du ]
  double time_averaged = 0.0;       // accumulated / t (interval availability)
  std::size_t terms = 0;
};

/// Expected accumulated reward over [0, t].
[[nodiscard]] IntervalRewardResult expected_interval_reward(
    const Ctmc& chain, const linalg::Vector& initial, double t,
    const TransientOptions& options = {});

}  // namespace rascal::ctmc
