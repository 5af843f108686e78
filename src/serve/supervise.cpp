#include "serve/supervise.h"

#include <utility>

#include "obs/obs.h"
#include "resil/chaos.h"

namespace rascal::serve {

namespace {

// Preconditioner downgrade chain: each step is strictly cheaper and
// structurally harder to reject than the one before it.
linalg::PrecondKind downgrade(linalg::PrecondKind precond) noexcept {
  switch (precond) {
    case linalg::PrecondKind::kIlu0: return linalg::PrecondKind::kJacobi;
    case linalg::PrecondKind::kJacobi: return linalg::PrecondKind::kNone;
    case linalg::PrecondKind::kNone: return linalg::PrecondKind::kNone;
  }
  return linalg::PrecondKind::kNone;
}

std::string describe_fallback(const LadderRung& requested,
                              const LadderRung& final_rung) {
  if (final_rung.method != requested.method) {
    return ctmc::to_string(final_rung.method);
  }
  return std::string("precond:") + linalg::precond_name(final_rung.precond);
}

}  // namespace

std::vector<LadderRung> fallback_ladder(ctmc::SteadyStateMethod method,
                                        linalg::PrecondKind precond,
                                        std::size_t num_states,
                                        std::size_t sparse_threshold) {
  const std::size_t threshold =
      sparse_threshold == 0 ? ctmc::kDefaultSparseThreshold : sparse_threshold;
  std::vector<LadderRung> rungs;
  rungs.push_back({method, precond});
  if (num_states <= threshold) {
    // Dense regime: substitute methods, ending at GTH, which is exact
    // and cannot fail to converge.  Krylov rungs keep the requested
    // preconditioner.
    const ctmc::SteadyStateMethod chain[] = {
        ctmc::SteadyStateMethod::kGmres, ctmc::SteadyStateMethod::kBiCgStab,
        ctmc::SteadyStateMethod::kGth};
    for (const ctmc::SteadyStateMethod next : chain) {
      if (next != method) rungs.push_back({next, precond});
    }
  } else {
    // Sparse regime: a dense fallback would materialize an n x n
    // matrix the threshold exists to forbid, so the descent stays
    // Krylov — downgrade the preconditioner, then switch method.
    const ctmc::SteadyStateMethod base =
        method == ctmc::SteadyStateMethod::kBiCgStab
            ? ctmc::SteadyStateMethod::kBiCgStab
            : ctmc::SteadyStateMethod::kGmres;
    linalg::PrecondKind p = precond;
    while (p != linalg::PrecondKind::kNone) {
      p = downgrade(p);
      rungs.push_back({base, p});
    }
    const ctmc::SteadyStateMethod other =
        base == ctmc::SteadyStateMethod::kGmres
            ? ctmc::SteadyStateMethod::kBiCgStab
            : ctmc::SteadyStateMethod::kGmres;
    rungs.push_back({other, linalg::PrecondKind::kNone});
  }
  return rungs;
}

SupervisedSolve supervised_solve(const ctmc::Ctmc& chain,
                                 const SolveSpec& spec,
                                 ctmc::SolveCache& cache,
                                 const SupervisionOptions& options,
                                 const resil::CancellationToken* cancel) {
  const std::vector<LadderRung> rungs = fallback_ladder(
      spec.method, spec.precond, chain.num_states(), spec.sparse_threshold);

  resil::RetryPolicy policy = options.retry;
  if (policy.max_attempts == 0) policy.max_attempts = 1;
  policy.base_iterations = spec.max_iterations;

  std::size_t rung = 0;
  std::size_t boost = 0;     // budget escalations on the current rung
  std::size_t attempt = 0;   // attempts consumed
  std::size_t injected = 0;  // test-hook faults already thrown
  for (;;) {
    ++attempt;
    try {
      if (injected < options.inject_transient_faults) {
        ++injected;
        throw resil::TransientError("injected transient fault (test hook)");
      }
      if (resil::chaos::enabled() && resil::chaos::tick("solver-fault")) {
        throw resil::TransientError("chaos: injected solver fault");
      }
      ctmc::SolveControl control;
      control.max_iterations = policy.iterations_for_attempt(boost);
      control.sparse_threshold = spec.sparse_threshold;
      control.precond = rungs[rung].precond;
      control.gmres_restart = spec.gmres_restart;
      control.cancel = cancel;
      const ctmc::SteadyState& steady = cache.steady_state(
          chain, rungs[rung].method, ctmc::Validation::kOn, control);
      SupervisedSolve out;
      out.steady = steady;
      out.attempts = attempt;
      out.rung = rung;
      out.final_rung = rungs[rung];
      out.final_budget = control.max_iterations;
      if (rung > 0) out.fallback = describe_fallback(rungs[0], rungs[rung]);
      if (obs::enabled()) {
        obs::counter("serve.supervise.attempts").add(attempt);
        if (attempt > 1) {
          obs::counter("serve.supervise.retries").add(attempt - 1);
          obs::counter("serve.supervise.recovered").add(1);
        }
        if (rung > 0) obs::counter("serve.supervise.fallbacks").add(1);
      }
      return out;
    } catch (const std::exception& failure) {
      const resil::ErrorClass cls = resil::classify(failure);
      if (!resil::retryable(cls) || !policy.allows_another(attempt - 1)) {
        if (obs::enabled() && cls != resil::ErrorClass::kCancelled) {
          obs::counter("serve.supervise.attempts").add(attempt);
          obs::counter("serve.supervise.exhausted").add(1);
        }
        throw;
      }
      if (cls == resil::ErrorClass::kTransient) {
        // Retry the identical attempt: a recovered transient is
        // bit-identical to a run the fault never touched.
        continue;
      }
      if (cls == resil::ErrorClass::kNonConvergence &&
          spec.max_iterations > 0 && boost == 0) {
        // One budget doubling before descending: a solve that was
        // merely short on budget converges along the same trajectory,
        // so the recovered bits match a first-try run with the larger
        // cap.
        ++boost;
        continue;
      }
      if (rung + 1 < rungs.size()) {
        ++rung;
        boost = 0;
        continue;
      }
      if (obs::enabled()) {
        obs::counter("serve.supervise.attempts").add(attempt);
        obs::counter("serve.supervise.exhausted").add(1);
      }
      throw;
    }
  }
}

Evaluation evaluate(const io::ModelFile& file,
                    const expr::ParameterSet& overrides, const SolveSpec& spec,
                    ctmc::SolveCache& cache,
                    const SupervisionOptions& supervision,
                    const resil::CancellationToken* cancel) {
  Evaluation out{file.bind(overrides), {}, {}};
  out.solved = supervised_solve(out.chain, spec, cache, supervision, cancel);
  out.metrics = core::availability_metrics(out.chain, out.solved.steady);
  return out;
}

std::string admission_verdict(const io::ModelFile& file,
                              const SupervisionOptions& options) {
  const std::size_t states = file.model.num_states();
  const std::size_t nnz = file.model.transitions().size();
  if (options.admission_states != 0 && states > options.admission_states) {
    return "admission: model declares " + std::to_string(states) +
           " states, cap is " + std::to_string(options.admission_states);
  }
  if (options.admission_nnz != 0 && nnz > options.admission_nnz) {
    return "admission: model declares " + std::to_string(nnz) +
           " transitions, cap is " + std::to_string(options.admission_nnz);
  }
  return "";
}

}  // namespace rascal::serve
