#include "check/oracle.h"

#include <cmath>
#include <sstream>

#include "core/metrics.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "ctmc/transient.h"
#include "linalg/expm.h"
#include "linalg/workspace.h"
#include "resil/retry.h"
#include "serve/supervise.h"

namespace rascal::check {

namespace {

double availability_of(const ctmc::Ctmc& chain, const linalg::Vector& pi) {
  double up = 0.0;
  for (std::size_t s = 0; s < chain.num_states(); ++s) {
    if (chain.reward(s) >= core::kDefaultUpThreshold) up += pi[s];
  }
  return up;
}

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  os << checks << " checks, " << failures.size() << " failures";
  for (const std::string& f : failures) os << "\n  " << f;
  return os.str();
}

void OracleReport::absorb(const OracleReport& other,
                          const std::string& context) {
  checks += other.checks;
  for (const std::string& f : other.failures) {
    failures.push_back(context + ": " + f);
  }
}

void OracleReport::expect_close(const std::string& what, double lhs,
                                double rhs, double tolerance) {
  ++checks;
  const double diff = std::abs(lhs - rhs);
  if (!(diff <= tolerance) || !std::isfinite(lhs) || !std::isfinite(rhs)) {
    std::ostringstream os;
    os.precision(17);
    os << what << ": " << lhs << " vs " << rhs << " (|diff| " << diff
       << " > tol " << tolerance << ")";
    failures.push_back(os.str());
  }
}

OracleReport check_steady_state_consensus(const ctmc::Ctmc& chain,
                                          const OracleOptions& options) {
  std::vector<ctmc::SteadyStateMethod> methods = {
      ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kLu};
  if (options.include_iterative) {
    methods.push_back(ctmc::SteadyStateMethod::kPower);
    methods.push_back(ctmc::SteadyStateMethod::kGaussSeidel);
  }

  OracleReport report;
  std::vector<ctmc::SteadyState> solutions;
  solutions.reserve(methods.size());
  for (const auto method : methods) {
    try {
      solutions.push_back(ctmc::solve_steady_state(chain, method));
    } catch (const std::exception& e) {
      ++report.checks;
      report.failures.push_back(std::string(ctmc::to_string(method)) +
                                ": threw: " + e.what());
      solutions.push_back({});
    }
  }

  // Each solution must satisfy its own balance equations...
  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (solutions[m].probabilities.empty()) continue;
    report.expect_close(std::string("residual ||pi Q|| (") +
                            ctmc::to_string(methods[m]) + ")",
                        solutions[m].residual, 0.0,
                        options.steady_tolerance);
  }
  // ...and all pairs must agree state-by-state and on availability.
  for (std::size_t a = 0; a < methods.size(); ++a) {
    for (std::size_t b = a + 1; b < methods.size(); ++b) {
      const auto& pa = solutions[a].probabilities;
      const auto& pb = solutions[b].probabilities;
      if (pa.empty() || pb.empty()) continue;
      const std::string pair = std::string(ctmc::to_string(methods[a])) +
                               " vs " + ctmc::to_string(methods[b]);
      for (std::size_t s = 0; s < chain.num_states(); ++s) {
        report.expect_close(pair + " pi[" + chain.state_name(s) + "]",
                            pa[s], pb[s], options.steady_tolerance);
      }
      report.expect_close(pair + " availability",
                          availability_of(chain, pa),
                          availability_of(chain, pb),
                          options.steady_tolerance);
    }
  }
  return report;
}

OracleReport check_steady_state_against(const ctmc::Ctmc& chain,
                                        const linalg::Vector& expected,
                                        const OracleOptions& options) {
  std::vector<ctmc::SteadyStateMethod> methods = {
      ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kLu};
  if (options.include_iterative) {
    methods.push_back(ctmc::SteadyStateMethod::kPower);
    methods.push_back(ctmc::SteadyStateMethod::kGaussSeidel);
  }
  OracleReport report;
  for (const auto method : methods) {
    ctmc::SteadyState steady;
    try {
      steady = ctmc::solve_steady_state(chain, method);
    } catch (const std::exception& e) {
      // Iterative methods may honestly refuse to converge on skewed
      // chains (e.g. strongly drifted birth-death walks); refusal is
      // not disagreement.  Direct methods have no such excuse.
      const bool iterative = method == ctmc::SteadyStateMethod::kPower ||
                             method == ctmc::SteadyStateMethod::kGaussSeidel;
      if (!iterative) {
        ++report.checks;
        report.failures.push_back(std::string(ctmc::to_string(method)) +
                                  ": threw: " + e.what());
      }
      continue;
    }
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
      report.expect_close(std::string(ctmc::to_string(method)) +
                              " vs closed form pi[" + chain.state_name(s) +
                              "]",
                          steady.probabilities[s], expected[s],
                          options.steady_tolerance);
    }
  }
  return report;
}

OracleReport check_transient_consensus(const ctmc::Ctmc& chain, double t,
                                       const OracleOptions& options) {
  OracleReport report;
  const auto uni = ctmc::transient_distribution(chain, ctmc::StateId{0}, t);

  linalg::Matrix qt = chain.generator();
  for (std::size_t r = 0; r < qt.rows(); ++r) {
    for (std::size_t c = 0; c < qt.cols(); ++c) qt(r, c) *= t;
  }
  const linalg::Matrix p = linalg::matrix_exponential(qt);
  for (std::size_t s = 0; s < chain.num_states(); ++s) {
    report.expect_close("uniformization vs expm pi_t[" +
                            chain.state_name(s) + "]",
                        uni.probabilities[s], p(0, s),
                        options.transient_tolerance);
  }
  double mass = 0.0;
  for (double x : uni.probabilities) mass += x;
  report.expect_close("uniformization mass", mass, 1.0,
                      options.transient_tolerance);
  return report;
}

OracleReport check_workspace_consensus(const ctmc::Ctmc& chain, double t,
                                       const OracleOptions& options) {
  std::vector<ctmc::SteadyStateMethod> methods = {
      ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kLu};
  if (options.include_iterative) {
    methods.push_back(ctmc::SteadyStateMethod::kPower);
    methods.push_back(ctmc::SteadyStateMethod::kGaussSeidel);
  }

  OracleReport report;
  // One workspace shared across all methods and repeats, so every
  // solve after the first runs against deliberately dirty scratch.
  linalg::SolveWorkspace workspace;
  for (const auto method : methods) {
    const std::string name = ctmc::to_string(method);
    ctmc::SteadyState fresh;
    try {
      fresh = ctmc::solve_steady_state(chain, method);
    } catch (const std::exception&) {
      // A method that honestly refuses the chain must refuse it the
      // same way through a workspace; success would be divergence.
      ++report.checks;
      bool reused_threw = false;
      try {
        ctmc::SolveControl control;
        control.workspace = &workspace;
        (void)ctmc::solve_steady_state(chain, method, ctmc::Validation::kOn,
                                       control);
      } catch (const std::exception&) {
        reused_threw = true;
      }
      if (!reused_threw) {
        report.failures.push_back(name +
                                  ": fresh solve threw but workspace "
                                  "solve succeeded");
      }
      continue;
    }

    ctmc::SolveControl control;
    control.workspace = &workspace;
    for (int rep = 0; rep < 2; ++rep) {
      const auto reused = ctmc::solve_steady_state(
          chain, method, ctmc::Validation::kOn, control);
      const std::string what =
          name + " workspace rep " + std::to_string(rep);
      for (std::size_t s = 0; s < chain.num_states(); ++s) {
        report.expect_close(what + " pi[" + chain.state_name(s) + "]",
                            reused.probabilities[s], fresh.probabilities[s],
                            0.0);
      }
      report.expect_close(what + " residual", reused.residual, fresh.residual,
                          0.0);
    }
  }

  // Transient distribution through the (still dirty) workspace.
  const auto fresh_dist =
      ctmc::transient_distribution(chain, ctmc::StateId{0}, t);
  ctmc::TransientOptions ws_options;
  ws_options.workspace = &workspace;
  for (int rep = 0; rep < 2; ++rep) {
    const auto reused =
        ctmc::transient_distribution(chain, ctmc::StateId{0}, t, ws_options);
    const std::string what = "transient workspace rep " + std::to_string(rep);
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
      report.expect_close(what + " pi_t[" + chain.state_name(s) + "]",
                          reused.probabilities[s], fresh_dist.probabilities[s],
                          0.0);
    }
    ++report.checks;
    if (reused.terms != fresh_dist.terms) {
      report.failures.push_back(what + ": Poisson term count diverged");
    }
  }

  // Batched multi-RHS interval rewards: entry j must match a
  // standalone single-set evaluation, and the chain-reward set must
  // match the scalar expected_interval_reward path.
  linalg::Vector initial(chain.num_states(), 0.0);
  initial[0] = 1.0;
  std::vector<linalg::Vector> reward_sets;
  linalg::Vector chain_rewards(chain.num_states(), 0.0);
  for (std::size_t s = 0; s < chain.num_states(); ++s) {
    chain_rewards[s] = chain.reward(s);
  }
  reward_sets.push_back(chain_rewards);
  reward_sets.emplace_back(chain.num_states(), 1.0);
  linalg::Vector ramp(chain.num_states(), 0.0);
  for (std::size_t s = 0; s < chain.num_states(); ++s) {
    ramp[s] = static_cast<double>(s + 1);
  }
  reward_sets.push_back(ramp);

  const auto batched =
      ctmc::expected_interval_rewards(chain, initial, t, reward_sets,
                                      ws_options);
  const auto scalar = ctmc::expected_interval_reward(chain, initial, t);
  report.expect_close("batched[chain rewards] vs scalar accumulated",
                      batched[0].accumulated_reward, scalar.accumulated_reward,
                      0.0);
  report.expect_close("batched[chain rewards] vs scalar time-averaged",
                      batched[0].time_averaged, scalar.time_averaged, 0.0);
  for (std::size_t j = 0; j < reward_sets.size(); ++j) {
    const auto lone =
        ctmc::expected_interval_rewards(chain, initial, t, {reward_sets[j]})
            .front();
    const std::string what = "batched[" + std::to_string(j) + "]";
    report.expect_close(what + " accumulated", batched[j].accumulated_reward,
                        lone.accumulated_reward, 0.0);
    report.expect_close(what + " time-averaged", batched[j].time_averaged,
                        lone.time_averaged, 0.0);
    ++report.checks;
    if (batched[j].terms != lone.terms) {
      report.failures.push_back(what + ": Poisson term count diverged");
    }
  }
  return report;
}

OracleReport check_simulation_consensus(const ctmc::Ctmc& chain,
                                        const sim::CtmcSimOptions& sim_options,
                                        const OracleOptions& options) {
  OracleReport report;
  const auto steady =
      ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGth);
  const double analytic = availability_of(chain, steady.probabilities);
  const auto sim = sim::simulate_ctmc(chain, sim_options);
  const double half_width =
      0.5 * (sim.availability_ci95.upper - sim.availability_ci95.lower);
  const double tolerance =
      options.ci_factor * half_width + options.ci_absolute_floor;
  report.expect_close("analytic vs simulated availability (CI-aware)",
                      analytic, sim.availability, tolerance);
  return report;
}

OracleReport check_krylov_consensus(const ctmc::Ctmc& chain,
                                    const OracleOptions& options) {
  OracleReport report;

  ctmc::SteadyState ref;
  bool ref_refused = false;
  try {
    ref = ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGth);
  } catch (const std::exception&) {
    ref_refused = true;
  }

  const ctmc::SteadyStateMethod methods[] = {
      ctmc::SteadyStateMethod::kGmres, ctmc::SteadyStateMethod::kBiCgStab};
  const linalg::PrecondKind preconds[] = {linalg::PrecondKind::kNone,
                                          linalg::PrecondKind::kJacobi,
                                          linalg::PrecondKind::kIlu0};

  // One workspace shared across every variant, so each solve after
  // the first runs against deliberately dirty Krylov scratch.
  linalg::SolveWorkspace workspace;
  for (const auto method : methods) {
    for (const auto precond : preconds) {
      const std::string name = std::string(ctmc::to_string(method)) + "+" +
                               linalg::precond_name(precond);
      ctmc::SolveControl control;
      control.precond = precond;

      ctmc::SteadyState fresh;
      try {
        fresh = ctmc::solve_steady_state(chain, method, ctmc::Validation::kOn,
                                         control);
      } catch (const std::exception& e) {
        ++report.checks;
        // A chain the dense reference refuses must be refused by the
        // sparse engine too; anything else is divergence.
        if (!ref_refused) {
          report.failures.push_back(name + ": threw: " + e.what());
        }
        continue;
      }
      if (ref_refused) {
        ++report.checks;
        report.failures.push_back(name +
                                  ": solved a chain the GTH reference "
                                  "refused");
        continue;
      }

      report.expect_close("residual ||pi Q|| (" + name + ")", fresh.residual,
                          0.0, options.steady_tolerance);
      for (std::size_t s = 0; s < chain.num_states(); ++s) {
        report.expect_close(name + " vs gth pi[" + chain.state_name(s) + "]",
                            fresh.probabilities[s], ref.probabilities[s],
                            options.steady_tolerance);
      }
      report.expect_close(name + " vs gth availability",
                          availability_of(chain, fresh.probabilities),
                          availability_of(chain, ref.probabilities),
                          options.steady_tolerance);

      // Bit-identity through a reused, dirty workspace.
      control.workspace = &workspace;
      for (int rep = 0; rep < 2; ++rep) {
        const auto reused = ctmc::solve_steady_state(
            chain, method, ctmc::Validation::kOn, control);
        const std::string what = name + " workspace rep " +
                                 std::to_string(rep);
        for (std::size_t s = 0; s < chain.num_states(); ++s) {
          report.expect_close(what + " pi[" + chain.state_name(s) + "]",
                              reused.probabilities[s], fresh.probabilities[s],
                              0.0);
        }
        report.expect_close(what + " residual", reused.residual,
                            fresh.residual, 0.0);
      }
    }
  }
  return report;
}

OracleReport check_shared_cache_consensus(const ctmc::Ctmc& chain,
                                          const OracleOptions& options) {
  OracleReport report;

  std::vector<ctmc::SteadyStateMethod> methods = {
      ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kLu};
  if (options.include_iterative) {
    methods.push_back(ctmc::SteadyStateMethod::kPower);
    methods.push_back(ctmc::SteadyStateMethod::kGaussSeidel);
  }

  for (const auto method : methods) {
    const std::string name = ctmc::to_string(method);
    const ctmc::SteadyState fresh = ctmc::solve_steady_state(chain, method);

    ctmc::SharedSolveCache shared;
    ctmc::SolveCache first_worker;
    first_worker.set_shared(&shared);
    ctmc::SolveCache second_worker;
    second_worker.set_shared(&shared);

    const auto expect_bits = [&](const std::string& what,
                                 const ctmc::SteadyState& got) {
      for (std::size_t s = 0; s < chain.num_states(); ++s) {
        report.expect_close(what + " pi[" + chain.state_name(s) + "]",
                            got.probabilities[s], fresh.probabilities[s],
                            0.0);
      }
      report.expect_close(what + " residual", got.residual, fresh.residual,
                          0.0);
    };

    // Cold miss: solved by the first worker, published to the shared
    // tier.
    expect_bits(name + " cold miss", first_worker.steady_state(chain, method));
    // Shared hit: a different worker pulls the published copy.
    expect_bits(name + " shared hit",
                second_worker.steady_state(chain, method));

    const ctmc::SharedSolveCache::Stats stats = shared.stats();
    report.expect_close(name + " shared tier published",
                        static_cast<double>(stats.insertions), 1.0, 0.0);
    report.expect_close(name + " shared tier hit",
                        static_cast<double>(stats.hits), 1.0, 0.0);
  }
  return report;
}

OracleReport check_retry_consensus(const ctmc::Ctmc& chain,
                                   const OracleOptions& options) {
  OracleReport report;

  std::vector<ctmc::SteadyStateMethod> methods = {
      ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kGmres,
      ctmc::SteadyStateMethod::kBiCgStab};
  if (options.include_iterative) {
    methods.push_back(ctmc::SteadyStateMethod::kPower);
    methods.push_back(ctmc::SteadyStateMethod::kGaussSeidel);
  }

  for (const auto method : methods) {
    const std::string name = ctmc::to_string(method);
    const ctmc::SteadyState direct = ctmc::solve_steady_state(chain, method);

    serve::SolveSpec spec;
    spec.method = method;
    serve::SupervisionOptions supervision;
    supervision.retry.max_attempts = 3;

    // Every fault count the policy can absorb must recover to the
    // exact bits of the never-faulted solve: a retried transient
    // replays the identical attempt, so the record cannot reveal
    // whether the fault happened.
    for (std::size_t faults = 0; faults + 1 <= supervision.retry.max_attempts;
         ++faults) {
      supervision.inject_transient_faults = faults;
      ctmc::SolveCache cache;  // cold per run: no bits smuggled across
      const serve::SupervisedSolve solved =
          serve::supervised_solve(chain, spec, cache, supervision);
      const std::string what =
          name + " recovered after " + std::to_string(faults) + " fault(s)";
      for (std::size_t s = 0; s < chain.num_states(); ++s) {
        report.expect_close(what + " pi[" + chain.state_name(s) + "]",
                            solved.steady.probabilities[s],
                            direct.probabilities[s], 0.0);
      }
      report.expect_close(what + " residual", solved.steady.residual,
                          direct.residual, 0.0);
      report.expect_close(what + " attempts consumed",
                          static_cast<double>(solved.attempts),
                          static_cast<double>(faults + 1), 0.0);
      report.expect_close(what + " stayed on rung 0",
                          static_cast<double>(solved.rung), 0.0, 0.0);
      report.expect_close(what + " no fallback annotation",
                          solved.fallback.empty() ? 1.0 : 0.0, 1.0, 0.0);
    }

    // One fault past the budget: the supervisor must throw the
    // transient (classified, never a silent partial result).
    supervision.inject_transient_faults = supervision.retry.max_attempts;
    double exhausted_as_transient = 0.0;
    try {
      ctmc::SolveCache cache;
      (void)serve::supervised_solve(chain, spec, cache, supervision);
    } catch (const std::exception& failure) {
      if (resil::classify(failure) == resil::ErrorClass::kTransient) {
        exhausted_as_transient = 1.0;
      }
    }
    report.expect_close(name + " exhausted budget throws transient",
                        exhausted_as_transient, 1.0, 0.0);
  }

  // The ladder is a pure function of its inputs: identical rungs on
  // repeated calls, rung 0 always the requested configuration, the
  // dense descent terminating on exact GTH and the sparse descent
  // never leaving the Krylov family.
  const auto rung_eq = [](const serve::LadderRung& a,
                          const serve::LadderRung& b) {
    return a.method == b.method && a.precond == b.precond;
  };
  for (const bool dense : {true, false}) {
    const std::size_t states = dense ? 8 : 1u << 20;
    const std::string regime = dense ? "dense" : "sparse";
    const std::vector<serve::LadderRung> first = serve::fallback_ladder(
        ctmc::SteadyStateMethod::kGmres, linalg::PrecondKind::kIlu0, states, 0);
    const std::vector<serve::LadderRung> second = serve::fallback_ladder(
        ctmc::SteadyStateMethod::kGmres, linalg::PrecondKind::kIlu0, states, 0);
    bool stable = first.size() == second.size();
    for (std::size_t i = 0; stable && i < first.size(); ++i) {
      stable = rung_eq(first[i], second[i]);
    }
    report.expect_close(regime + " ladder deterministic", stable ? 1.0 : 0.0,
                        1.0, 0.0);
    report.expect_close(
        regime + " ladder rung 0 is the request",
        first.front().method == ctmc::SteadyStateMethod::kGmres ? 1.0 : 0.0,
        1.0, 0.0);
    if (dense) {
      report.expect_close(
          "dense ladder ends on exact GTH",
          first.back().method == ctmc::SteadyStateMethod::kGth ? 1.0 : 0.0,
          1.0, 0.0);
    } else {
      bool krylov_only = true;
      for (const serve::LadderRung& rung : first) {
        krylov_only = krylov_only &&
                      (rung.method == ctmc::SteadyStateMethod::kGmres ||
                       rung.method == ctmc::SteadyStateMethod::kBiCgStab);
      }
      report.expect_close("sparse ladder never densifies",
                          krylov_only ? 1.0 : 0.0, 1.0, 0.0);
    }
  }
  return report;
}

}  // namespace rascal::check
