// Application Server cluster availability models — Figure 4 of the
// paper (2 instances) and its generalization to N instances.
//
// After any instance failure the cluster spends Trecovery re-homing
// the failed instance's sessions onto survivors (HTTP session
// failover via HADB), then the instance restarts: quickly (AS process
// failure, probability FSS = La_as/La) or slowly (HW/OS failure).
// Surviving instances absorb the failed instance's load, so their
// failure rate accelerates by Acc per failed peer (La_i = La_0*Acc^i).
// The system is down only when every instance is down, after which a
// human restarts the whole cluster in Tstart_all.
#pragma once

#include <cstddef>

#include "ctmc/builder.h"

namespace rascal::models {

/// The literal Figure-4 model: states All_Work(1), Recovery(1),
/// 1DownShort(1), 1DownLong(1), 2_Down(0).  Parameters: as_La_as,
/// as_La_os, as_La_hw, as_Trecovery, as_Tstart_short, as_Tstart_long,
/// as_Tstart_all, Acc.
[[nodiscard]] ctmc::SymbolicCtmc app_server_two_instance_model();

/// Generalized N-instance model (the paper's "more complex" Config 2
/// model).  States are counted occupancy vectors (r, s, l) = number of
/// instances in session-recovery / short-restart / long-restart, with
/// at least one instance up, plus an All_Down state.  For n == 2 this
/// reduces exactly to the Figure-4 chain (with 1DownShort/1DownLong
/// named d0r0s1l0 / d0r0s0l1).
///
/// `recovery_reward` sets the reward of states with at least one
/// instance in session recovery (1.0 for pure availability, < 1 for
/// performability analysis of degraded service).
///
/// Throws std::invalid_argument for n < 2.
[[nodiscard]] ctmc::SymbolicCtmc app_server_n_instance_model(
    std::size_t n, double recovery_reward = 1.0);

/// Capacity-reward variant for performability analysis: the reward of
/// an occupancy state is the fraction of instances serving
/// (n_up / n), so the expected reward rate is the cluster's expected
/// serving capacity — the paper notes Recovery "could be a degraded
/// state in performability modeling"; this extends that idea to every
/// degraded level.  Same state space as app_server_n_instance_model.
[[nodiscard]] ctmc::SymbolicCtmc app_server_capacity_model(std::size_t n);

}  // namespace rascal::models
