#include "ctmc/compose.h"

#include <algorithm>
#include <stdexcept>

namespace rascal::ctmc {

RewardCombiner min_reward_combiner() {
  return [](const std::vector<double>& rewards) {
    return *std::min_element(rewards.begin(), rewards.end());
  };
}

Ctmc compose_independent(const std::vector<Ctmc>& parts,
                         const RewardCombiner& combine,
                         const ComposeOptions& options) {
  if (parts.empty()) {
    throw std::invalid_argument("compose_independent: no components");
  }
  if (!combine) {
    throw std::invalid_argument("compose_independent: null combiner");
  }
  std::size_t total = 1;
  for (const Ctmc& part : parts) {
    if (total > options.max_states / part.num_states()) {
      throw std::runtime_error(
          "compose_independent: product space exceeds max_states");
    }
    total *= part.num_states();
  }

  std::vector<State> states(total);
  std::vector<Transition> transitions;
  std::vector<StateId> coords(parts.size(), 0);
  std::vector<double> rewards(parts.size(), 0.0);
  for (StateId index = 0; index < total; ++index) {
    // Decode row-major coordinates.
    std::size_t rest = index;
    for (std::size_t k = parts.size(); k-- > 0;) {
      coords[k] = rest % parts[k].num_states();
      rest /= parts[k].num_states();
    }
    std::string name;
    for (std::size_t k = 0; k < parts.size(); ++k) {
      rewards[k] = parts[k].reward(coords[k]);
      if (k > 0) name += '|';
      name += parts[k].state_name(coords[k]);
    }
    // Component state names may repeat across components; make the
    // composite name unique by its index.
    states[index] = {name + "@" + std::to_string(index), combine(rewards)};

    // Kronecker sum: one-coordinate moves at the component's rate.
    for (std::size_t k = 0; k < parts.size(); ++k) {
      // Stride of coordinate k in the row-major layout.
      std::size_t stride = 1;
      for (std::size_t j = k + 1; j < parts.size(); ++j) {
        stride *= parts[j].num_states();
      }
      for (const Transition& t : parts[k].transitions()) {
        if (t.from != coords[k]) continue;
        const StateId target = index - coords[k] * stride + t.to * stride;
        transitions.push_back({index, target, t.rate});
      }
    }
  }
  return Ctmc(std::move(states), std::move(transitions));
}

}  // namespace rascal::ctmc
