#include "check/reference_twins.h"

#include <cmath>
#include <stdexcept>

#include "core/parallel.h"
#include "stats/special_functions.h"

namespace rascal::check {

namespace {

// Aggregate rate vector of `s` toward each block (excluding s's own
// block, whose internal flow is irrelevant to lumpability).
std::vector<double> aggregate_rates(const ctmc::Ctmc& chain, ctmc::StateId s,
                                    const std::vector<std::size_t>& block_of,
                                    std::size_t num_blocks) {
  std::vector<double> rates(num_blocks, 0.0);
  for (const ctmc::Transition& t : chain.transitions()) {
    if (t.from != s) continue;
    if (block_of[t.to] == block_of[s]) continue;
    rates[block_of[t.to]] += t.rate;
  }
  return rates;
}

}  // namespace

ctmc::Ctmc lump(const ctmc::Ctmc& chain, const ctmc::Partition& partition,
                const std::vector<std::string>& block_names,
                double tolerance) {
  std::string violation;
  if (!ctmc::is_lumpable(chain, partition, tolerance, &violation)) {
    throw std::invalid_argument("lump: partition is not lumpable: " +
                                violation);
  }
  if (!block_names.empty() && block_names.size() != partition.size()) {
    throw std::invalid_argument("lump: block_names arity mismatch");
  }
  // is_lumpable has checked that the blocks cover every state once.
  std::vector<std::size_t> block_of(chain.num_states());
  for (std::size_t b = 0; b < partition.size(); ++b) {
    for (ctmc::StateId s : partition[b]) block_of[s] = b;
  }

  std::vector<ctmc::State> states;
  states.reserve(partition.size());
  for (std::size_t b = 0; b < partition.size(); ++b) {
    if (partition[b].empty()) {
      throw std::invalid_argument("lump: empty block");
    }
    const double reward = chain.reward(partition[b][0]);
    for (ctmc::StateId s : partition[b]) {
      if (chain.reward(s) != reward) {
        throw std::invalid_argument(
            "lump: block mixes different rewards (state '" +
            chain.state_name(s) + "')");
      }
    }
    states.push_back({block_names.empty()
                          ? "lump:" + chain.state_name(partition[b][0])
                          : block_names[b],
                      reward});
  }

  std::vector<ctmc::Transition> transitions;
  for (std::size_t b = 0; b < partition.size(); ++b) {
    const auto rates =
        aggregate_rates(chain, partition[b][0], block_of, partition.size());
    for (std::size_t j = 0; j < partition.size(); ++j) {
      if (j != b && rates[j] > 0.0) {
        transitions.push_back({b, j, rates[j]});
      }
    }
  }
  return ctmc::Ctmc(std::move(states), std::move(transitions));
}

std::vector<Sensitivity> finite_difference_sensitivities(
    const analysis::ModelFunction& model, const expr::ParameterSet& base,
    const std::vector<std::string>& parameters, double relative_step,
    std::size_t threads) {
  if (!(relative_step > 0.0)) {
    throw std::invalid_argument(
        "finite_difference_sensitivities: step must be > 0");
  }
  const double y0 = model(base);
  return core::parallel_map(
      parameters.size(), threads, [&](std::size_t i) {
        const std::string& name = parameters[i];
        const double x0 = base.get(name);
        const double h =
            x0 == 0.0 ? relative_step : std::abs(x0) * relative_step;
        expr::ParameterSet lo = base;
        expr::ParameterSet hi = base;
        lo.set(name, x0 - h);
        hi.set(name, x0 + h);
        const double dydx = (model(hi) - model(lo)) / (2.0 * h);
        Sensitivity s;
        s.parameter = name;
        s.derivative = dydx;
        s.elasticity = y0 != 0.0 ? dydx * x0 / y0 : 0.0;
        return s;
      });
}

ProportionInterval clopper_pearson(std::uint64_t trials,
                                   std::uint64_t successes,
                                   double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw std::invalid_argument("confidence must be in (0, 1)");
  }
  if (successes > trials) {
    throw std::invalid_argument("clopper_pearson: successes > trials");
  }
  const double alpha = 1.0 - confidence;
  const double n = static_cast<double>(trials);
  const double s = static_cast<double>(successes);
  ProportionInterval interval;
  if (successes > 0) {
    interval.lower =
        stats::inverse_regularized_beta(s, n - s + 1.0, alpha / 2.0);
  }
  if (successes < trials) {
    interval.upper =
        stats::inverse_regularized_beta(s + 1.0, n - s, 1.0 - alpha / 2.0);
  }
  return interval;
}

}  // namespace rascal::check
