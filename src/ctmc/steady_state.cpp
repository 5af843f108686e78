#include "ctmc/steady_state.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/gth.h"
#include "linalg/iterative.h"
#include "linalg/krylov.h"
#include "linalg/lu.h"
#include "obs/obs.h"

namespace rascal::ctmc {

namespace {

constexpr std::pair<SteadyStateMethod, const char*> kMethodNames[] = {
    {SteadyStateMethod::kGth, "gth"},
    {SteadyStateMethod::kLu, "lu"},
    {SteadyStateMethod::kPower, "power"},
    {SteadyStateMethod::kGaussSeidel, "gauss-seidel"},
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

// Per-method solve/iteration/residual telemetry (counters are keyed
// by method slug; the residual gauges track the worst and the most
// recent solve of the run).
void record_solve_telemetry(SteadyStateMethod method,
                            const SteadyState& result) {
  if (!obs::enabled()) return;
  const std::string slug = to_string(method);
  obs::counter("ctmc.solver.solves").add(1);
  obs::counter("ctmc.solver.solves." + slug).add(1);
  if (result.iterations > 0) {
    obs::counter("ctmc.solver.iterations." + slug).add(result.iterations);
  }
  obs::gauge("ctmc.solver.residual.last").set(result.residual);
  obs::gauge("ctmc.solver.residual.max").record_max(result.residual);
}

// An iterative method exhausted its budget; the caller is about to
// throw, but the failure still shows up in the run's counters.
void record_nonconvergence(SteadyStateMethod method, std::size_t iterations) {
  if (!obs::enabled()) return;
  const std::string slug = to_string(method);
  obs::counter("ctmc.solver.nonconverged").add(1);
  obs::counter("ctmc.solver.iterations." + slug).add(iterations);
}

// Escalation bookkeeping: the requested method's result was rejected
// (nonconvergence or a near-singular direct solve) and GTH is being
// used instead.
void record_escalation(SteadyStateMethod from) {
  if (!obs::enabled()) return;
  obs::counter("ctmc.solver.escalated").add(1);
  obs::counter(std::string("ctmc.solver.escalated.") + to_string(from) +
               "_to_gth")
      .add(1);
}

// A direct LU solve of an availability model can silently produce a
// poor pi when the generator is near-singular; residuals above this
// mean the solve is untrustworthy and (under escalation) GTH is used.
constexpr double kDirectResidualLimit = 1e-8;

// Writes the transposed generator with the last balance equation
// replaced by the normalization row sum(pi) = 1 (the LU system).
void write_lu_system(const Ctmc& chain, linalg::Matrix& a) {
  const std::size_t n = chain.num_states();
  a.reshape(n, n, 0.0);
  for (const Transition& t : chain.transitions()) a(t.to, t.from) = t.rate;
  for (std::size_t i = 0; i < n; ++i) a(i, i) = -chain.exit_rate(i);
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
}

void solve_lu(const Ctmc& chain, linalg::SolveWorkspace* ws,
              linalg::Vector& pi) {
  // pi Q = 0  <=>  Q^T pi^T = 0.  Replace the last balance equation
  // with the normalization sum(pi) = 1 to obtain a nonsingular system.
  const std::size_t n = chain.num_states();
  linalg::SolveWorkspace local;
  if (ws == nullptr) ws = &local;
  linalg::Matrix& a = ws->dense_storage();
  write_lu_system(chain, a);
  ws->lu().refactor(a);
  linalg::Vector& b = ws->vec(0, n);
  b[n - 1] = 1.0;
  ws->lu().solve_into(b, pi);
  // Direct solves can leave tiny negative round-off in near-zero
  // probabilities; clamp and renormalize.
  for (double& p : pi) {
    if (p < 0.0 && p > -1e-12) p = 0.0;
  }
  linalg::normalize_to_sum_one(pi);
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

  linalg::IterativeOptions iterative;
  if (control.max_iterations > 0) {
    iterative.max_iterations = control.max_iterations;
  }
  iterative.cancel = control.cancel;

  linalg::SolveWorkspace local_ws;
  linalg::SolveWorkspace* ws =
      control.workspace != nullptr ? control.workspace : &local_ws;

  // Dense/sparse boundary: above the threshold a dense-method request
  // is re-routed to the sparse GMRES path, never materializing the
  // n x n Matrix, and escalation refuses to densify.
  const std::size_t sparse_threshold = control.sparse_threshold > 0
                                           ? control.sparse_threshold
                                           : kDefaultSparseThreshold;
  SteadyStateMethod effective = method;
  if ((method == SteadyStateMethod::kGth || method == SteadyStateMethod::kLu) &&
      chain.num_states() > sparse_threshold) {
    effective = SteadyStateMethod::kGmres;
    if (obs::enabled()) obs::counter("ctmc.solver.sparse_rerouted").add(1);
  }

  const auto residual_of = [&chain, ws](const linalg::Vector& pi) {
    return residual_inf(chain, pi, ws->vec(1, 0));
  };
  const auto solve_gth = [&chain, ws](linalg::Vector& pi) {
    linalg::Matrix& q = ws->dense_storage();
    chain.write_generator(q);
    linalg::gth_stationary_in(q, pi);
  };
  const auto escalate_to_gth = [&](SteadyState& result) {
    record_escalation(effective);
    solve_gth(result.probabilities);
    result.escalated = true;
  };

  SteadyState result;
  result.method = method;
  result.effective_method = effective;
  switch (effective) {
    case SteadyStateMethod::kGth:
      solve_gth(result.probabilities);
      break;
    case SteadyStateMethod::kLu: {
      bool solved = false;
      if (control.escalate) {
        try {
          solve_lu(chain, ws, result.probabilities);
          solved = residual_of(result.probabilities) <= kDirectResidualLimit;
        } catch (const std::exception&) {
          solved = false;  // singular system: fall through to GTH
        }
        if (!solved) escalate_to_gth(result);
      } else {
        solve_lu(chain, ws, result.probabilities);
      }
      break;
    }
    case SteadyStateMethod::kPower:
    case SteadyStateMethod::kGaussSeidel: {
      auto it = method == SteadyStateMethod::kPower
                    ? linalg::power_stationary(chain.sparse_generator(),
                                               iterative)
                    : linalg::gauss_seidel_stationary(chain.sparse_generator(),
                                                      iterative);
      if (it.cancelled) {
        // Never escalate a cancelled solve: the caller asked to stop.
        throw resil::CancelledError(
            std::string("solve_steady_state: ") + to_string(method) +
            " solve cancelled after " + std::to_string(it.iterations) +
            " iterations");
      }
      if (!it.converged) {
        record_nonconvergence(method, it.iterations);
        if (control.escalate && chain.num_states() <= sparse_threshold) {
          escalate_to_gth(result);
        } else if (control.escalate) {
          throw NonConvergenceError(
              std::string("solve_steady_state: ") + to_string(method) +
              " did not converge within " + std::to_string(it.iterations) +
              " iterations; " + std::to_string(chain.num_states()) +
              " states exceed the sparse threshold (" +
              std::to_string(sparse_threshold) +
              "), so dense GTH escalation is unavailable");
        } else {
          throw NonConvergenceError(
              std::string("solve_steady_state: ") + to_string(method) +
              " did not converge within " + std::to_string(it.iterations) +
              " iterations (residual " + std::to_string(it.residual) + ")");
        }
      } else {
        result.probabilities = std::move(it.pi);
        result.iterations = it.iterations;
      }
      break;
    }
    case SteadyStateMethod::kGmres:
    case SteadyStateMethod::kBiCgStab: {
      linalg::KrylovOptions kopts;
      if (control.max_iterations > 0) {
        kopts.max_iterations = control.max_iterations;
      }
      if (control.gmres_restart > 0) kopts.restart = control.gmres_restart;
      kopts.precond = control.precond;
      kopts.cancel = control.cancel;
      kopts.workspace = ws;

      linalg::KrylovResult kr;
      bool precond_rejected = false;
      std::string failure_note;
      try {
        kr = effective == SteadyStateMethod::kGmres
                 ? linalg::gmres_stationary(chain.sparse_generator(), kopts)
                 : linalg::bicgstab_stationary(chain.sparse_generator(),
                                               kopts);
      } catch (const linalg::PrecondError& e) {
        // A structurally unusable pattern (e.g. absorbing state with
        // validation off) is handled like nonconvergence so the
        // escalation cascade can still rescue the solve.
        precond_rejected = true;
        failure_note = e.what();
      }
      if (!precond_rejected && kr.cancelled) {
        // Never escalate a cancelled solve: the caller asked to stop.
        throw resil::CancelledError(
            std::string("solve_steady_state: ") + to_string(effective) +
            " solve cancelled after " + std::to_string(kr.iterations) +
            " iterations");
      }
      if (precond_rejected || !kr.converged) {
        if (!precond_rejected) {
          failure_note = std::string(kr.breakdown ? "broke down"
                                                  : "did not converge") +
                         " within " + std::to_string(kr.iterations) +
                         " iterations (residual " +
                         std::to_string(kr.residual) + ")";
        }
        record_nonconvergence(effective,
                              precond_rejected ? 0 : kr.iterations);
        if (control.escalate && chain.num_states() <= sparse_threshold) {
          escalate_to_gth(result);
        } else if (control.escalate) {
          throw NonConvergenceError(
              std::string("solve_steady_state: ") + to_string(effective) +
              " " + failure_note + "; " +
              std::to_string(chain.num_states()) +
              " states exceed the sparse threshold (" +
              std::to_string(sparse_threshold) +
              "), so dense GTH escalation is unavailable");
        } else {
          throw NonConvergenceError(std::string("solve_steady_state: ") +
                                    to_string(effective) + " " +
                                    failure_note);
        }
      } else {
        result.probabilities = std::move(kr.x);
        result.iterations = kr.iterations;
      }
      break;
    }
  }
  result.residual = residual_of(result.probabilities);
  record_solve_telemetry(effective, result);
  return result;
}

}  // namespace rascal::ctmc
