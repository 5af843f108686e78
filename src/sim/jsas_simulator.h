// Discrete-event simulation of the JSAS cluster itself (not of the
// Markov model): AS instances with session failover and restarts,
// HADB node pairs with mutual takeover, spare rebuild, scheduled
// maintenance, and imperfect recovery.
//
// Two recovery-time regimes are supported:
//   * exponential_recoveries = true  reproduces the analytic model's
//     assumptions exactly (all durations exponential) — used to
//     validate the CTMC solvers end to end;
//   * exponential_recoveries = false uses deterministic recovery /
//     restart / repair durations, which is how the real system behaves
//     (the paper notes most recovery times are deterministic) — used
//     to quantify how much the exponential approximation matters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/parameter_set.h"
#include "models/jsas_system.h"
#include "resil/resil.h"
#include "stats/summary.h"

namespace rascal::sim {

struct JsasSimOptions {
  double duration = 100.0 * 8760.0;  // simulated hours per replication
  std::size_t replications = 10;
  std::uint64_t seed = 7;
  bool exponential_recoveries = false;
  // Worker threads across replications: 0 = automatic (RASCAL_THREADS
  // env, else hardware_concurrency).  Each replication draws from its
  // own RandomEngine::split(rep) substream and per-replication totals
  // are merged in replication order after the parallel region, so any
  // thread count produces bit-identical results.
  std::size_t threads = 0;
  // Resilience: cancellation (polled inside the event loop every few
  // thousand events), replication-granular checkpoint/resume, and
  // skip-failed-replications.  Like `threads`, it never changes the
  // result bits, so a checkpoint's digest need not cover it.
  resil::ExecutionControl control;
};

/// A replication whose run threw (recorded under
/// ExecutionControl::skip_failures instead of aborting the simulation).
struct ReplicationFailure {
  std::size_t replication = 0;
  std::string error;
};

struct JsasSimResult {
  double availability = 1.0;
  stats::Interval availability_ci95;
  double downtime_minutes_per_year = 0.0;
  double downtime_as_minutes = 0.0;    // time with the whole AS tier down
  double downtime_hadb_minutes = 0.0;  // time with some pair double-down
  double mtbf_hours = 0.0;
  std::uint64_t system_failures = 0;
  std::uint64_t as_cluster_failures = 0;   // all instances down events
  std::uint64_t hadb_pair_failures = 0;    // pair double-down events
  std::uint64_t imperfect_recoveries = 0;  // subset of pair failures
  std::uint64_t as_instance_failures = 0;  // component-level events
  std::uint64_t hadb_node_failures = 0;
  std::uint64_t events_simulated = 0;  // dispatched events, all replications
  stats::Summary per_replication_availability;

  std::vector<ReplicationFailure> failures;  // dropped, in replication order
  std::size_t completed_replications = 0;  // merged into the result
  bool interrupted = false;                // cancelled with work pending
  std::string interrupt_reason;            // cancel token's describe()
};

/// Simulates `config` under `params` (same parameter names as the
/// analytic models).  Throws std::invalid_argument for configurations
/// with fewer than 2 instances or 1 pair, or non-positive durations.
[[nodiscard]] JsasSimResult simulate_jsas(const models::JsasConfig& config,
                                          const expr::ParameterSet& params,
                                          const JsasSimOptions& options = {});

}  // namespace rascal::sim
