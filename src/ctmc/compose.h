// Cross-product composition of independent CTMCs.
//
// Given component chains X_1 ... X_k that evolve independently, the
// joint process is a CTMC on the product space whose generator is the
// Kronecker sum: each transition changes exactly one coordinate.  The
// reward of a composite state is produced by a caller-supplied
// combiner over the component rewards (minimum by default: the system
// is as available as its least-available component — series systems).
//
// This is the exact alternative to the two-state-equivalent hierarchy
// of core/hierarchy.h; bench_hierarchy quantifies the difference.
#pragma once

#include <functional>
#include <vector>

#include "ctmc/ctmc.h"

namespace rascal::ctmc {

/// Combines component rewards into the composite state's reward.
using RewardCombiner =
    std::function<double(const std::vector<double>& component_rewards)>;

/// Series-system combiner: min of component rewards.
[[nodiscard]] RewardCombiner min_reward_combiner();

struct ComposeOptions {
  std::size_t max_states = 2000000;  // product-space guard
};

/// Composes independent chains.  Composite state ids are row-major
/// over `parts` (the last component's state varies fastest), and
/// state names join component names with '|'.  Throws
/// std::invalid_argument when `parts` is empty and std::runtime_error
/// when the product space exceeds max_states.
[[nodiscard]] Ctmc compose_independent(
    const std::vector<Ctmc>& parts,
    const RewardCombiner& combine = min_reward_combiner(),
    const ComposeOptions& options = {});

}  // namespace rascal::ctmc
