#include "ctmc/steady_state.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/gth.h"
#include "linalg/krylov.h"
#include "obs/obs.h"

namespace rascal::ctmc {

namespace {

constexpr std::pair<SteadyStateMethod, const char*> kMethodNames[] = {
    {SteadyStateMethod::kGth, "gth"},
    {SteadyStateMethod::kGmres, "gmres"},
    {SteadyStateMethod::kBiCgStab, "bicgstab"},
};

}  // namespace

const char* to_string(SteadyStateMethod method) noexcept {
  for (const auto& [value, name] : kMethodNames) {
    if (value == method) return name;
  }
  return "unknown";
}

bool parse_method(const std::string& name, SteadyStateMethod& out) noexcept {
  for (const auto& [value, text] : kMethodNames) {
    if (name == text) {
      out = value;
      return true;
    }
  }
  return false;
}

namespace {

// Solver telemetry.  Each counter is resolved by the first solve that
// touches it and held in a function-local static reference, so a solve
// takes no registry lock and builds no name.  Nothing is registered up
// front: obs::snapshot lists every registered counter, zeros included,
// so an eager table would add rows to --stats and to traces.
obs::Counter& solves_of(SteadyStateMethod method) {
  if (method == SteadyStateMethod::kGth) {
    static obs::Counter& gth = obs::counter("ctmc.solver.solves.gth");
    return gth;
  }
  if (method == SteadyStateMethod::kGmres) {
    static obs::Counter& gmres = obs::counter("ctmc.solver.solves.gmres");
    return gmres;
  }
  static obs::Counter& bicgstab = obs::counter("ctmc.solver.solves.bicgstab");
  return bicgstab;
}

// GTH reports no iterations, so this counter exists for the Krylov
// methods only.
obs::Counter& iterations_of(SteadyStateMethod krylov) {
  if (krylov == SteadyStateMethod::kGmres) {
    static obs::Counter& gmres =
        obs::counter("ctmc.solver.iterations.gmres");
    return gmres;
  }
  static obs::Counter& bicgstab =
      obs::counter("ctmc.solver.iterations.bicgstab");
  return bicgstab;
}

// Per-method solve and iteration counts, and residual gauges that
// track the worst and the most recent solve of the run.
void record_solve_telemetry(SteadyStateMethod method,
                            const SteadyState& result) {
  if (!obs::enabled()) return;
  static obs::Counter& solves = obs::counter("ctmc.solver.solves");
  static obs::Gauge& last = obs::gauge("ctmc.solver.residual.last");
  static obs::Gauge& worst = obs::gauge("ctmc.solver.residual.max");
  solves.add(1);
  solves_of(method).add(1);
  if (result.iterations > 0) iterations_of(method).add(result.iterations);
  last.set(result.residual);
  worst.record_max(result.residual);
}

// ||pi Q||_inf accumulated transition-wise from the sorted adjacency,
// with the diagonal spliced in at its column-sorted position.  This
// visits every (row, col) entry exactly once in the same order as a
// CSR left-multiply of sparse_generator(), so the result is
// bit-identical to the matrix-based residual without building a CSR
// matrix per solve.
double residual_inf(const Ctmc& chain, const linalg::Vector& pi,
                    linalg::Vector& scratch) {
  const std::size_t n = chain.num_states();
  const std::vector<Transition>& ts = chain.transitions();
  scratch.assign(n, 0.0);
  std::size_t k = 0;
  for (StateId i = 0; i < n; ++i) {
    const double xi = pi[i];
    if (xi == 0.0) {
      while (k < ts.size() && ts[k].from == i) ++k;
      continue;
    }
    const double exit = chain.exit_rate(i);
    bool diag_pending = exit != 0.0;
    while (k < ts.size() && ts[k].from == i) {
      if (diag_pending && ts[k].to > i) {
        scratch[i] += xi * -exit;
        diag_pending = false;
      }
      scratch[ts[k].to] += xi * ts[k].rate;
      ++k;
    }
    if (diag_pending) scratch[i] += xi * -exit;
  }
  return linalg::norm_inf(scratch);
}

}  // namespace

SteadyState solve_steady_state(const Ctmc& chain, SteadyStateMethod method,
                               Validation validation,
                               const SolveControl& control) {
  const obs::Span span("ctmc.solve_steady_state");
  if (validation == Validation::kOn && !chain.steady_state_prevalidated()) {
    throw_if_errors(validate_for_steady_state(chain));
  }

  // Build a workspace only when the caller lends none: building allocates.
  std::optional<linalg::SolveWorkspace> local_ws;
  linalg::SolveWorkspace* ws =
      control.workspace != nullptr ? control.workspace : &local_ws.emplace();

  // Dense/sparse boundary: above the threshold a GTH request is
  // re-routed to the sparse GMRES path, never materializing the n x n
  // Matrix.
  const std::size_t sparse_threshold = control.sparse_threshold > 0
                                           ? control.sparse_threshold
                                           : kDefaultSparseThreshold;
  SteadyStateMethod effective = method;
  if (method == SteadyStateMethod::kGth &&
      chain.num_states() > sparse_threshold) {
    effective = SteadyStateMethod::kGmres;
    if (obs::enabled()) {
      static obs::Counter& rerouted =
          obs::counter("ctmc.solver.sparse_rerouted");
      rerouted.add(1);
    }
  }

  SteadyState result;
  result.method = method;
  result.effective_method = effective;
  if (effective == SteadyStateMethod::kGth) {
    linalg::Matrix& q = ws->dense_storage();
    chain.write_generator(q);
    linalg::gth_stationary_in(q, result.probabilities);
  } else {
    linalg::KrylovOptions kopts;
    if (control.max_iterations > 0) {
      kopts.max_iterations = control.max_iterations;
    }
    if (control.gmres_restart > 0) kopts.restart = control.gmres_restart;
    kopts.precond = control.precond;
    kopts.cancel = control.cancel;
    kopts.workspace = ws;

    linalg::KrylovResult kr;  // unconverged, 0 iterations if rejected
    std::string failure_note;
    try {
      kr = effective == SteadyStateMethod::kGmres
               ? linalg::gmres_stationary(chain.sparse_generator(), kopts)
               : linalg::bicgstab_stationary(chain.sparse_generator(), kopts);
    } catch (const linalg::PrecondError& e) {
      // A structurally unusable pattern (e.g. absorbing state with
      // validation off) fails like nonconvergence, so a supervisor can
      // still answer it on another rung of its fallback ladder.
      failure_note = e.what();  // never empty: "[P00x] ..."
    }
    if (kr.cancelled) {
      // Not a nonconvergence: the caller asked to stop.
      throw resil::CancelledError(
          std::string("solve_steady_state: ") + to_string(effective) +
          " solve cancelled after " + std::to_string(kr.iterations) +
          " iterations");
    }
    if (!kr.converged) {
      if (failure_note.empty()) {
        failure_note = std::string(kr.breakdown ? "broke down"
                                                : "did not converge") +
                       " within " + std::to_string(kr.iterations) +
                       " iterations (residual " +
                       std::to_string(kr.residual) + ")";
      }
      if (obs::enabled()) {
        static obs::Counter& nonconverged =
            obs::counter("ctmc.solver.nonconverged");
        nonconverged.add(1);
        iterations_of(effective).add(kr.iterations);
      }
      throw NonConvergenceError(std::string("solve_steady_state: ") +
                                to_string(effective) + " " + failure_note);
    }
    result.probabilities = std::move(kr.x);
    result.iterations = kr.iterations;
  }
  result.residual =
      residual_inf(chain, result.probabilities, ws->sparse_vec(0, 0));
  record_solve_telemetry(effective, result);
  return result;
}

}  // namespace rascal::ctmc
