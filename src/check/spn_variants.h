// Stochastic-Petri-net formulations of the paper's submodels.
//
// These re-derive the Figure 3 / Figure 4 CTMCs from token-level GSPN
// descriptions (the SPNP/UltraSAN route the paper cites), giving an
// independent construction path: tests assert that the generated
// chains produce the same availability as the hand-built models in
// hadb_pair.h / app_server.h.
#pragma once

#include <cstddef>

#include "expr/parameter_set.h"
#include "spn/petri_net.h"
#include "spn/reachability.h"

namespace rascal::check {

/// HADB node pair as a GSPN.  Places: NodesOk (2 tokens),
/// NodeRestartShort, NodeRestartLong, NodeRepair, NodeMnt, PairDown.
/// The marking is tangible-only (no immediate transitions); the
/// reachability graph is exactly the 6-state Figure 3 chain.
[[nodiscard]] spn::PetriNet hadb_pair_spn(const expr::ParameterSet& params);

/// Reward function for hadb_pair_spn markings: up while PairDown is
/// empty.
[[nodiscard]] spn::RewardFunction hadb_pair_spn_reward();

/// N-instance Application Server cluster as a GSPN.  Uses immediate
/// transitions to flush in-flight recoveries when the last instance
/// dies (the whole cluster is then restarted manually), exercising
/// vanishing-marking elimination.
[[nodiscard]] spn::PetriNet app_server_spn(std::size_t instances,
                                           const expr::ParameterSet& params);

/// Reward for app_server_spn markings: up while ClusterDown is empty.
[[nodiscard]] spn::RewardFunction app_server_spn_reward();

}  // namespace rascal::check
