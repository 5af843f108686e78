// Reachability analysis: converts a bounded GSPN into a CTMC over its
// tangible markings, eliminating vanishing markings (those enabling
// immediate transitions) by pushing their firing probabilities into
// the incoming timed rates.
#pragma once

#include <functional>

#include "ctmc/ctmc.h"
#include "spn/petri_net.h"

namespace rascal::spn {

/// Reward rate of a tangible marking (1 = up, 0 = down, etc.).
using RewardFunction = std::function<double(const Marking&)>;

struct ReachabilityOptions {
  std::size_t max_tangible_markings = 1000000;
  std::size_t max_vanishing_depth = 10000;  // immediate-chain guard
};

struct GeneratedCtmc {
  ctmc::Ctmc chain;
  std::vector<Marking> markings;  // tangible marking per state id
};

/// Explores from the initial marking.  Throws std::runtime_error on a
/// vanishing loop (a cycle of immediate firings), when the state
/// space exceeds max_tangible_markings, or when the initial marking
/// cannot reach any tangible marking; std::invalid_argument when the
/// net has no places.
[[nodiscard]] GeneratedCtmc generate_ctmc(
    const PetriNet& net, const RewardFunction& reward,
    const ReachabilityOptions& options = {});

}  // namespace rascal::spn
