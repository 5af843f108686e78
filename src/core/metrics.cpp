#include "core/metrics.h"

#include <limits>
#include <stdexcept>

#include "core/units.h"

namespace rascal::core {

namespace {

void check_sizes(const ctmc::Ctmc& chain, const ctmc::SteadyState& steady) {
  if (steady.probabilities.size() != chain.num_states()) {
    throw std::invalid_argument(
        "availability_metrics: steady-state size mismatch");
  }
}

}  // namespace

AvailabilityMetrics availability_metrics(const ctmc::Ctmc& chain,
                                         const ctmc::SteadyState& steady,
                                         double up_threshold) {
  check_sizes(chain, steady);
  AvailabilityMetrics m;

  // Sum the *down* probabilities directly: availability models leave
  // only ~1e-6..1e-30 mass in down states, which "1 - sum(up)" would
  // destroy by cancellation.
  const std::vector<ctmc::State>& states = chain.states();
  const linalg::Vector& pi = steady.probabilities;
  double p_down = 0.0;
  double reward_rate = 0.0;
  for (ctmc::StateId i = 0; i < states.size(); ++i) {
    if (!(states[i].reward >= up_threshold)) p_down += pi[i];
    reward_rate += pi[i] * states[i].reward;
  }
  const double p_up = 1.0 - p_down;
  m.availability = p_up;
  m.unavailability = p_down;
  m.downtime_minutes_per_year = downtime_minutes_per_year(m.unavailability);
  m.expected_reward_rate = reward_rate;

  // Frequency of system failures: flow across the up -> down cut.
  double freq = 0.0;
  for (const ctmc::Transition& t : chain.transitions()) {
    if (states[t.from].reward >= up_threshold &&
        !(states[t.to].reward >= up_threshold)) {
      freq += pi[t.from] * t.rate;
    }
  }
  m.failure_frequency = freq;
  if (freq > 0.0) {
    m.mtbf_hours = 1.0 / freq;
    m.mttf_hours = p_up / freq;
    m.mttr_hours = (1.0 - p_up) / freq;
  } else {
    m.mtbf_hours = std::numeric_limits<double>::infinity();
    m.mttf_hours = std::numeric_limits<double>::infinity();
    m.mttr_hours = 0.0;
  }
  return m;
}

AvailabilityMetrics solve_availability(const ctmc::Ctmc& chain,
                                       double up_threshold) {
  return availability_metrics(chain, ctmc::solve_steady_state(chain),
                              up_threshold);
}

TwoStateEquivalent two_state_equivalent(const ctmc::Ctmc& chain,
                                        const ctmc::SteadyState& steady,
                                        double up_threshold) {
  const AvailabilityMetrics m =
      availability_metrics(chain, steady, up_threshold);
  TwoStateEquivalent eq;
  if (m.availability > 0.0) {
    eq.lambda_eq = m.failure_frequency / m.availability;
  }
  if (m.unavailability > 0.0) {
    eq.mu_eq = m.failure_frequency / m.unavailability;
  } else {
    // No reachable down state: the equivalent repair rate is
    // irrelevant; use infinity so availability() reports 1.
    eq.mu_eq = std::numeric_limits<double>::infinity();
  }
  return eq;
}

std::vector<StateDowntime> downtime_by_state(const ctmc::Ctmc& chain,
                                             const ctmc::SteadyState& steady,
                                             double up_threshold) {
  check_sizes(chain, steady);
  std::vector<StateDowntime> out;
  for (ctmc::StateId i = 0; i < chain.num_states(); ++i) {
    if (chain.reward(i) < up_threshold) {
      out.push_back(
          {i, downtime_minutes_per_year(steady.probability(i))});
    }
  }
  return out;
}

}  // namespace rascal::core
