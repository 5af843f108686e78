// Fault-injection campaign driver (paper Section 3).
//
// Repeatedly injects one of the paper's fault classes into the
// simulated testbed, exercises the automatic recovery machinery,
// verifies the service stayed available (single faults must be
// tolerated) and the target returned to service, and records the
// recovery time.  Aggregated outcomes feed the Equation-1 coverage
// bound used to set FIR, and the recovery-time samples justify the
// conservative Section-5 restart parameters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultinj/testbed.h"
#include "resil/resil.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace rascal::faultinj {

/// The fault classes of Section 3 (manual and automated lists).
enum class FaultClass {
  kHadbKillAllProcesses,   // full node failure
  kHadbKillRandomProcess,  // software bug simulation
  kHadbFastTerminate,      // fast-fail request
  kHadbNetworkUnplug,
  kHadbPowerUnplug,
  kAsKillProcesses,
  kAsNetworkUnplug,
  kAsPowerUnplug,
};

[[nodiscard]] std::string to_string(FaultClass fault);

/// Workload level at injection time: the paper "fluctuated [the
/// workloads] from idle to fully loaded states" during the campaign.
enum class WorkloadLevel { kIdle, kModerate, kFullyLoaded };
[[nodiscard]] std::string to_string(WorkloadLevel level);

/// Rare operating modes combined with the injections ("repair and
/// data reorganization modes").
enum class SystemMode { kNormal, kRepair, kDataReorganization };

/// Ground-truth behaviour of the simulated recovery machinery.  The
/// paper's real system recovered 3,287/3,287 injections; with the
/// default true_imperfect_recovery = 0 the simulated campaign
/// reproduces that outcome and the estimators bound FIR from above.
struct RecoveryModel {
  double true_imperfect_recovery = 0.0;  // P(recovery fails)
  // Means of the recovery-time distributions observed in the lab
  // (hours): HADB restart ~40 s, HADB OS reboot ~ 10 min, spare
  // rebuild ~12 min/GB, AS restart ~25 s, AS reboot ~15 min,
  // AS HW replacement ~100 min.
  double hadb_restart_mean = 40.0 / 3600.0;
  double hadb_reboot_mean = 10.0 / 60.0;
  double hadb_rebuild_mean = 12.0 / 60.0;
  double as_restart_mean = 25.0 / 3600.0;
  double as_reboot_mean = 15.0 / 60.0;
  double as_replace_mean = 100.0 / 60.0;
  double lognormal_sigma = 0.25;  // spread of observed times

  // Recovery-time multipliers for the workload/mode conditions the
  // campaign cycles through (recovery competes with load).
  double idle_factor = 0.8;
  double full_load_factor = 1.3;
  double repair_mode_factor = 1.2;
  double reorg_mode_factor = 1.5;
};

struct InjectionRecord {
  FaultClass fault = FaultClass::kHadbKillAllProcesses;
  HostId target = 0;
  WorkloadLevel workload = WorkloadLevel::kModerate;
  SystemMode mode = SystemMode::kNormal;
  bool service_stayed_available = false;
  bool target_recovered = false;
  double recovery_time_hours = 0.0;
};

struct CampaignOptions {
  std::size_t trials = 3287;  // the paper's campaign size
  std::uint64_t seed = 1973;
  // Worker threads for the per-trial parallelism: 0 = automatic
  // (RASCAL_THREADS env, else hardware_concurrency).  Every trial
  // draws from its own RandomEngine::split(trial) substream and the
  // aggregates are accumulated in trial order after the parallel
  // region, so any thread count produces bit-identical results.
  std::size_t threads = 0;
  RecoveryModel recovery;
  // Resilience: cancellation, checkpoint/resume, skip-failed-trials.
  // Excluded from the checkpoint digest (resume may legally change
  // thread count or control settings).
  resil::ExecutionControl control;
};

/// A trial whose execution threw (recorded under
/// ExecutionControl::skip_failures instead of aborting the campaign).
struct TrialFailure {
  std::size_t trial = 0;
  std::string error;
};

struct CampaignResult {
  std::vector<InjectionRecord> records;  // completed trials, trial order
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;  // recovered with service available
  stats::Summary hadb_restart_times;
  stats::Summary hadb_rebuild_times;
  stats::Summary as_restart_times;
  // Recovery-time summaries per workload level (indexed by the enum).
  stats::Summary recovery_by_workload[3];

  std::vector<TrialFailure> failures;  // dropped trials, in trial order
  std::uint64_t requested = 0;         // trials asked for
  bool interrupted = false;            // cancelled with work pending
  std::string interrupt_reason;        // cancel token's describe()

  /// Equation-1 upper bound on FIR at the given confidence.
  [[nodiscard]] double fir_upper_bound(double confidence) const;
};

/// Fingerprint of everything that determines a campaign's result bits
/// (seed, trial count, recovery model, and the RNG substream
/// derivation — NOT the thread count); the checkpoint digest.
[[nodiscard]] std::uint64_t campaign_checkpoint_digest(
    const CampaignOptions& options);

/// Runs `options.trials` injections against a fresh jsas_lab testbed,
/// cycling through the fault classes and alternating targets.
[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& options = {});

/// Simulates a longevity (stability) run: `machines` systems observed
/// for `days` days with a ground-truth failure rate (per machine-day).
/// Returns the number of failures observed — 0 with the default
/// truth, matching the paper's 24-day clean run.
[[nodiscard]] std::uint64_t simulate_longevity(double days,
                                               std::size_t machines,
                                               double true_rate_per_day,
                                               stats::RandomEngine& rng);

}  // namespace rascal::faultinj
