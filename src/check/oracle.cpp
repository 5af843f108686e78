#include "check/oracle.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <typeinfo>

#include "check/expm.h"
#include "check/reference_solvers.h"
#include "core/metrics.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "ctmc/transient.h"
#include "ctmc/validate.h"
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

// The production methods: the workspace, shared-cache and retry gates
// run each of them.
constexpr ctmc::SteadyStateMethod kProductionMethods[] = {
    ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kGmres,
    ctmc::SteadyStateMethod::kBiCgStab};

// One steady-state answer under comparison.  `error` holds the
// exception's message when the solver refused the chain.
struct Answer {
  std::string name;
  bool iterative = false;
  linalg::Vector pi;
  double residual = 0.0;
  std::string error;
};

// Production GTH, then the LU reference and, when the options ask for
// them, the iterative references.
std::vector<Answer> solve_all(const ctmc::Ctmc& chain,
                              const OracleOptions& options) {
  std::vector<Answer> answers;
  Answer gth;
  gth.name = "gth";
  try {
    ctmc::SteadyState steady =
        ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGth);
    gth.pi = std::move(steady.probabilities);
    gth.residual = steady.residual;
  } catch (const std::exception& e) {
    gth.error = e.what();
  }
  answers.push_back(std::move(gth));

  std::vector<ReferenceSolver> references = {ReferenceSolver::kLu};
  if (options.include_iterative) {
    references.push_back(ReferenceSolver::kPower);
    references.push_back(ReferenceSolver::kGaussSeidel);
  }
  for (const ReferenceSolver solver : references) {
    Answer answer;
    answer.name = to_string(solver);
    answer.iterative = solver != ReferenceSolver::kLu;
    try {
      ReferenceResult result = solve_reference(chain, solver);
      answer.pi = std::move(result.pi);
      answer.residual = result.residual;
    } catch (const std::exception& e) {
      answer.error = e.what();
    }
    answers.push_back(std::move(answer));
  }
  return answers;
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
  OracleReport report;
  const std::vector<Answer> answers = solve_all(chain, options);
  for (const Answer& answer : answers) {
    if (answer.error.empty()) continue;
    ++report.checks;
    report.failures.push_back(answer.name + ": threw: " + answer.error);
  }

  // Each solution must satisfy its own balance equations...
  for (const Answer& answer : answers) {
    if (answer.pi.empty()) continue;
    report.expect_close("residual ||pi Q|| (" + answer.name + ")",
                        answer.residual, 0.0, options.steady_tolerance);
  }
  // ...and all pairs must agree state-by-state and on availability.
  for (std::size_t a = 0; a < answers.size(); ++a) {
    for (std::size_t b = a + 1; b < answers.size(); ++b) {
      const auto& pa = answers[a].pi;
      const auto& pb = answers[b].pi;
      if (pa.empty() || pb.empty()) continue;
      const std::string pair = answers[a].name + " vs " + answers[b].name;
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
  OracleReport report;
  for (const Answer& answer : solve_all(chain, options)) {
    if (!answer.error.empty()) {
      // Iterative references may honestly refuse to converge on skewed
      // chains (e.g. strongly drifted birth-death walks); refusal is
      // not disagreement.  Direct solvers have no such excuse.
      if (!answer.iterative) {
        ++report.checks;
        report.failures.push_back(answer.name + ": threw: " + answer.error);
      }
      continue;
    }
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
      report.expect_close(answer.name + " vs closed form pi[" +
                              chain.state_name(s) + "]",
                          answer.pi[s], expected[s],
                          options.steady_tolerance);
    }
  }
  return report;
}

OracleReport check_transient_consensus(const ctmc::Ctmc& chain, double t,
                                       const OracleOptions& options) {
  OracleReport report;
  linalg::Vector start(chain.num_states(), 0.0);
  start[0] = 1.0;
  const auto uni = ctmc::transient_distribution(chain, start, t);

  linalg::Matrix qt = chain.generator();
  for (std::size_t r = 0; r < qt.rows(); ++r) {
    for (std::size_t c = 0; c < qt.cols(); ++c) qt(r, c) *= t;
  }
  const linalg::Matrix p = matrix_exponential(qt);
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

OracleReport check_workspace_consensus(const ctmc::Ctmc& chain, double t) {
  OracleReport report;
  // One workspace shared across all methods and repeats, so every
  // solve after the first runs against deliberately dirty scratch.
  linalg::SolveWorkspace workspace;
  for (const auto method : kProductionMethods) {
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
  linalg::Vector start(chain.num_states(), 0.0);
  start[0] = 1.0;
  const auto fresh_dist = ctmc::transient_distribution(chain, start, t);
  ctmc::TransientOptions ws_options;
  ws_options.workspace = &workspace;
  for (int rep = 0; rep < 2; ++rep) {
    const auto reused =
        ctmc::transient_distribution(chain, start, t, ws_options);
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

  // Interval reward through the (still dirty) workspace.
  linalg::Vector initial(chain.num_states(), 0.0);
  initial[0] = 1.0;
  const auto fresh_reward = ctmc::expected_interval_reward(chain, initial, t);
  for (int rep = 0; rep < 2; ++rep) {
    const auto reused =
        ctmc::expected_interval_reward(chain, initial, t, ws_options);
    const std::string what =
        "interval reward workspace rep " + std::to_string(rep);
    report.expect_close(what + " accumulated", reused.accumulated_reward,
                        fresh_reward.accumulated_reward, 0.0);
    report.expect_close(what + " time-averaged", reused.time_averaged,
                        fresh_reward.time_averaged, 0.0);
    ++report.checks;
    if (reused.terms != fresh_reward.terms) {
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

OracleReport check_shared_cache_consensus(const ctmc::Ctmc& chain) {
  OracleReport report;
  for (const auto method : kProductionMethods) {
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

OracleReport check_retry_consensus(const ctmc::Ctmc& chain) {
  OracleReport report;
  for (const auto method : kProductionMethods) {
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

namespace {

// What a call produced: a value, or an exception's dynamic type and
// message.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;  // "<type>: <what()>"
};

template <typename T, typename Fn>
Outcome<T> outcome_of(Fn&& fn) {
  Outcome<T> out;
  try {
    out.value.emplace(fn());
  } catch (const std::exception& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return out;
}

void expect_same_bits(OracleReport& report, const std::string& what,
                      double got, double want) {
  ++report.checks;
  if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want)) {
    std::ostringstream os;
    os.precision(17);
    os << what << ": " << got << " vs " << want << " (bits differ)";
    report.failures.push_back(os.str());
  }
}

void expect_equal(OracleReport& report, const std::string& what,
                  const std::string& got, const std::string& want) {
  ++report.checks;
  if (got != want) {
    report.failures.push_back(what + ": '" + got + "' vs '" + want + "'");
  }
}

// One check for a whole vector: the length, then the first element
// whose bits differ.
void expect_same_vector(OracleReport& report, const std::string& what,
                        const linalg::Vector& got, const linalg::Vector& want) {
  if (got.size() != want.size()) {
    expect_same_bits(report, what + " length", static_cast<double>(got.size()),
                     static_cast<double>(want.size()));
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      expect_same_bits(report, what + "[" + std::to_string(i) + "]", got[i],
                       want[i]);
      return;
    }
  }
  ++report.checks;
}

// A Krylov result's converged, breakdown and cancelled flags as one
// number.
double krylov_flags(const linalg::KrylovResult& r) {
  return (r.converged ? 1.0 : 0.0) + (r.breakdown ? 2.0 : 0.0) +
         (r.cancelled ? 4.0 : 0.0);
}

}  // namespace

OracleReport check_bind_consensus(const ctmc::SymbolicCtmc& model,
                                  const expr::ParameterSet& params) {
  OracleReport report;
  const auto bound =
      outcome_of<ctmc::Ctmc>([&] { return model.bind(params); });
  const auto reference =
      outcome_of<ctmc::Ctmc>([&] { return model.bind_reference(params); });
  expect_equal(report, "exception", bound.error, reference.error);
  if (!bound.value || !reference.value) return report;
  const ctmc::Ctmc& got = *bound.value;
  const ctmc::Ctmc& want = *reference.value;

  expect_same_bits(report, "state count",
                   static_cast<double>(got.num_states()),
                   static_cast<double>(want.num_states()));
  expect_same_bits(report, "transition count",
                   static_cast<double>(got.transitions().size()),
                   static_cast<double>(want.transitions().size()));
  if (!report.ok()) return report;
  for (std::size_t s = 0; s < want.num_states(); ++s) {
    const std::string& name = want.state_name(s);
    expect_equal(report, "state " + std::to_string(s), got.state_name(s),
                 name);
    expect_same_bits(report, "reward of " + name, got.reward(s),
                     want.reward(s));
    expect_same_bits(report, "exit rate of " + name, got.exit_rate(s),
                     want.exit_rate(s));
  }
  for (std::size_t k = 0; k < want.transitions().size(); ++k) {
    const ctmc::Transition& g = got.transitions()[k];
    const ctmc::Transition& w = want.transitions()[k];
    const std::string what = "transition " + std::to_string(k);
    expect_same_bits(report, what + " from", static_cast<double>(g.from),
                     static_cast<double>(w.from));
    expect_same_bits(report, what + " to", static_cast<double>(g.to),
                     static_cast<double>(w.to));
    expect_same_bits(report, what + " rate", g.rate, w.rate);
  }
  ++report.checks;
  if (ctmc::SolveCache::generator_digest(got) !=
      ctmc::SolveCache::generator_digest(want)) {
    report.failures.push_back("generator digests differ");
  }

  // Which path ran: a zero rate drops a transition, which only the
  // reference path reproduces.
  bool zero_rate = false;
  for (const auto& t : model.transitions()) {
    zero_rate = zero_rate || t.rate.evaluate(params) == 0.0;
  }
  const bool valid = !ctmc::validate_for_steady_state(want).has_errors();
  expect_same_bits(report, "steady-state verdict carried by the chain",
                   got.steady_state_prevalidated() ? 1.0 : 0.0,
                   !zero_rate && valid ? 1.0 : 0.0);

  const auto solved = outcome_of<ctmc::SteadyState>(
      [&] { return ctmc::solve_steady_state(got); });
  const auto solved_reference = outcome_of<ctmc::SteadyState>(
      [&] { return ctmc::solve_steady_state(want); });
  expect_equal(report, "solve exception", solved.error,
               solved_reference.error);
  if (solved.value && solved_reference.value) {
    for (std::size_t s = 0; s < want.num_states(); ++s) {
      expect_same_bits(report, "pi[" + want.state_name(s) + "]",
                       solved.value->probabilities[s],
                       solved_reference.value->probabilities[s]);
    }
  }
  return report;
}

OracleReport check_krylov_plan_consensus(
    const std::vector<ctmc::Ctmc>& chains) {
  OracleReport report;
  for (const auto method :
       {ctmc::SteadyStateMethod::kGmres, ctmc::SteadyStateMethod::kBiCgStab}) {
    for (const auto precond :
         {linalg::PrecondKind::kNone, linalg::PrecondKind::kJacobi,
          linalg::PrecondKind::kIlu0}) {
      const std::string name = std::string(ctmc::to_string(method)) + "+" +
                               linalg::precond_name(precond);
      linalg::SolveWorkspace workspace;  // dirty from every chain before
      ctmc::SolveCache cache;
      ctmc::SolveControl control;
      control.precond = precond;
      control.sparse_threshold = 1;
      for (std::size_t c = 0; c < chains.size(); ++c) {
        const ctmc::Ctmc& chain = chains[c];
        const std::string what = name + " chain " + std::to_string(c);
        linalg::KrylovOptions options;
        options.precond = precond;
        const auto fresh = outcome_of<linalg::KrylovResult>([&] {
          // Its values come from the layout's transpose of the
          // generator, not from krylov_stationary's scatter of the
          // chain's rates into the slots.
          linalg::KrylovPlan plan;
          plan.layout(0, chain.sparse_generator());
          return method == ctmc::SteadyStateMethod::kGmres
                     ? linalg::gmres_stationary(plan, options)
                     : linalg::bicgstab_stationary(plan, options);
        });
        options.workspace = &workspace;
        const auto planned = outcome_of<linalg::KrylovResult>(
            [&] { return ctmc::krylov_stationary(chain, method, options); });
        expect_equal(report, what + " exception", planned.error, fresh.error);
        if (planned.value && fresh.value) {
          const linalg::KrylovResult& got = *planned.value;
          const linalg::KrylovResult& want = *fresh.value;
          expect_same_vector(report, what + " pi", got.x, want.x);
          expect_same_bits(report, what + " iterations",
                           static_cast<double>(got.iterations),
                           static_cast<double>(want.iterations));
          expect_same_bits(report, what + " residual", got.residual,
                           want.residual);
          expect_same_bits(report, what + " flags", krylov_flags(got),
                           krylov_flags(want));
        }

        // The production path: SolveCache -> solve_steady_state.
        const bool fresh_solved = fresh.value && fresh.value->converged;
        ++report.checks;
        try {
          const ctmc::SteadyState& steady = cache.steady_state(
              chain, method, ctmc::Validation::kOff, control);
          if (!fresh_solved) {
            report.failures.push_back(what +
                                      " cache: solved a chain the fresh "
                                      "solve did not");
          } else {
            expect_same_vector(report, what + " cache pi",
                               steady.probabilities, fresh.value->x);
            expect_same_bits(report, what + " cache iterations",
                             static_cast<double>(steady.iterations),
                             static_cast<double>(fresh.value->iterations));
          }
        } catch (const ctmc::NonConvergenceError& e) {
          if (fresh_solved) {
            report.failures.push_back(what + " cache: threw: " + e.what());
          }
        } catch (const std::exception& e) {
          report.failures.push_back(what + " cache: threw: " + e.what());
        }
      }
    }
  }
  return report;
}

}  // namespace rascal::check
