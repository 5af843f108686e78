// Direct simulation of a GSPN by playing the token game — no
// reachability graph, so it also works when the net is unbounded or
// its tangible state space is too large to generate (the standard
// SPNP fallback).  Timed transitions race with exponential delays;
// enabled immediates fire instantly by priority and weight.
#pragma once

#include <cstdint>

#include "spn/petri_net.h"
#include "spn/reachability.h"  // RewardFunction
#include "stats/rng.h"
#include "stats/summary.h"

namespace rascal::check {

struct SpnSimOptions {
  double duration = 100000.0;
  std::size_t replications = 8;
  std::uint64_t seed = 1234;
  std::size_t max_immediate_chain = 10000;  // vanishing-loop guard
};

struct SpnSimResult {
  double mean_reward = 0.0;  // time-averaged reward over replications
  stats::Interval mean_reward_ci95;
  std::uint64_t timed_firings = 0;
  std::uint64_t immediate_firings = 0;
  stats::Summary per_replication_reward;
};

/// Estimates the steady-state expected reward rate of `net` under
/// `reward` by simulation.  Throws std::invalid_argument on bad
/// options and std::runtime_error on an immediate-transition loop.
[[nodiscard]] SpnSimResult simulate_spn(const spn::PetriNet& net,
                                        const spn::RewardFunction& reward,
                                        const SpnSimOptions& options = {});

}  // namespace rascal::check
