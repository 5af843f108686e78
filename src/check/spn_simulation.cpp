#include "check/spn_simulation.h"

#include <stdexcept>
#include <vector>

namespace rascal::check {

using spn::Marking;
using spn::PetriNet;
using spn::RewardFunction;
using spn::TransitionId;

namespace {

// Fires immediate transitions (highest priority first, weighted
// choice) until the marking is tangible.
Marking settle(const PetriNet& net, Marking marking,
               const SpnSimOptions& options, stats::RandomEngine& rng,
               std::uint64_t& immediate_firings) {
  for (std::size_t chain = 0;; ++chain) {
    if (chain > options.max_immediate_chain) {
      throw std::runtime_error(
          "simulate_spn: immediate-transition chain exceeded "
          "max_immediate_chain (vanishing loop?)");
    }
    std::vector<TransitionId> immediates;
    int best_priority = 0;
    for (TransitionId t = 0; t < net.num_transitions(); ++t) {
      if (!net.is_immediate(t) || !net.is_enabled(t, marking)) continue;
      if (immediates.empty() || net.priority(t) > best_priority) {
        immediates.clear();
        best_priority = net.priority(t);
      }
      if (net.priority(t) == best_priority) immediates.push_back(t);
    }
    if (immediates.empty()) return marking;

    double total_weight = 0.0;
    for (TransitionId t : immediates) total_weight += net.rate(t, marking);
    double pick = rng.uniform01() * total_weight;
    TransitionId chosen = immediates.back();
    for (TransitionId t : immediates) {
      const double w = net.rate(t, marking);
      if (pick < w) {
        chosen = t;
        break;
      }
      pick -= w;
    }
    marking = net.fire(chosen, marking);
    ++immediate_firings;
  }
}

}  // namespace

SpnSimResult simulate_spn(const PetriNet& net, const RewardFunction& reward,
                          const SpnSimOptions& options) {
  if (!(options.duration > 0.0) || options.replications == 0) {
    throw std::invalid_argument("simulate_spn: bad options");
  }
  if (!reward) {
    throw std::invalid_argument("simulate_spn: null reward function");
  }

  SpnSimResult result;
  stats::RandomEngine root(options.seed);
  for (std::size_t rep = 0; rep < options.replications; ++rep) {
    stats::RandomEngine rng = root.split(rep);
    Marking marking = settle(net, net.initial_marking(), options, rng,
                             result.immediate_firings);
    double now = 0.0;
    double accumulated = 0.0;
    while (now < options.duration) {
      // Race the enabled timed transitions.
      double total_rate = 0.0;
      std::vector<std::pair<TransitionId, double>> enabled;
      for (TransitionId t = 0; t < net.num_transitions(); ++t) {
        if (net.is_immediate(t) || !net.is_enabled(t, marking)) continue;
        const double rate = net.rate(t, marking);
        enabled.emplace_back(t, rate);
        total_rate += rate;
      }
      const double r = reward(marking);
      if (enabled.empty()) {
        // Dead marking: the reward persists forever.
        accumulated += r * (options.duration - now);
        break;
      }
      const double hold = rng.exponential(total_rate);
      const double slice = std::min(hold, options.duration - now);
      accumulated += r * slice;
      now += hold;
      if (now >= options.duration) break;

      double pick = rng.uniform01() * total_rate;
      TransitionId chosen = enabled.back().first;
      for (const auto& [t, rate] : enabled) {
        if (pick < rate) {
          chosen = t;
          break;
        }
        pick -= rate;
      }
      marking = settle(net, net.fire(chosen, marking), options, rng,
                       result.immediate_firings);
      ++result.timed_firings;
    }
    result.per_replication_reward.add(accumulated / options.duration);
  }
  result.mean_reward = result.per_replication_reward.mean();
  result.mean_reward_ci95 =
      stats::mean_confidence_interval(result.per_replication_reward, 0.95);
  return result;
}

}  // namespace rascal::check
