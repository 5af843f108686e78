#include "faultinj/injector.h"

#include <cmath>
#include <stdexcept>

#include "core/resumable.h"
#include "obs/obs.h"
#include "stats/estimators.h"

namespace rascal::faultinj {

std::string to_string(FaultClass fault) {
  switch (fault) {
    case FaultClass::kHadbKillAllProcesses: return "hadb-kill-all-processes";
    case FaultClass::kHadbKillRandomProcess:
      return "hadb-kill-random-process";
    case FaultClass::kHadbFastTerminate: return "hadb-fast-terminate";
    case FaultClass::kHadbNetworkUnplug: return "hadb-network-unplug";
    case FaultClass::kHadbPowerUnplug: return "hadb-power-unplug";
    case FaultClass::kAsKillProcesses: return "as-kill-processes";
    case FaultClass::kAsNetworkUnplug: return "as-network-unplug";
    case FaultClass::kAsPowerUnplug: return "as-power-unplug";
  }
  return "unknown";
}

std::string to_string(WorkloadLevel level) {
  switch (level) {
    case WorkloadLevel::kIdle: return "idle";
    case WorkloadLevel::kModerate: return "moderate";
    case WorkloadLevel::kFullyLoaded: return "fully-loaded";
  }
  return "unknown";
}

double CampaignResult::fir_upper_bound(double confidence) const {
  return stats::imperfect_recovery_upper_bound(trials, successes, confidence);
}

namespace {

constexpr FaultClass kAllFaults[] = {
    FaultClass::kHadbKillAllProcesses, FaultClass::kHadbKillRandomProcess,
    FaultClass::kHadbFastTerminate,    FaultClass::kHadbNetworkUnplug,
    FaultClass::kHadbPowerUnplug,      FaultClass::kAsKillProcesses,
    FaultClass::kAsNetworkUnplug,      FaultClass::kAsPowerUnplug,
};

bool targets_hadb(FaultClass fault) {
  switch (fault) {
    case FaultClass::kHadbKillAllProcesses:
    case FaultClass::kHadbKillRandomProcess:
    case FaultClass::kHadbFastTerminate:
    case FaultClass::kHadbNetworkUnplug:
    case FaultClass::kHadbPowerUnplug:
      return true;
    default:
      return false;
  }
}

double lognormal_around(double mean, double sigma,
                        stats::RandomEngine& rng) {
  // Parameterize so the distribution's mean equals `mean`.
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  return std::exp(mu + sigma * rng.normal01());
}

void apply_fault(Testbed& bed, FaultClass fault, HostId target,
                 stats::RandomEngine& rng) {
  switch (fault) {
    case FaultClass::kHadbKillAllProcesses:
    case FaultClass::kAsKillProcesses:
      bed.kill_all_processes(target);
      break;
    case FaultClass::kHadbKillRandomProcess: {
      const std::size_t n = bed.host(target).processes.size();
      bed.kill_process(target, rng.uniform_index(n));
      break;
    }
    case FaultClass::kHadbFastTerminate:
      // "Ask processes to terminate immediately": clean fast-fail of
      // one process.
      bed.kill_process(target, 0);
      break;
    case FaultClass::kHadbNetworkUnplug:
    case FaultClass::kAsNetworkUnplug:
      bed.disconnect_network(target);
      break;
    case FaultClass::kHadbPowerUnplug:
    case FaultClass::kAsPowerUnplug:
      bed.power_off(target);
      break;
  }
}

// Recovery time drawn from the class-appropriate lab distribution.
double recovery_time(FaultClass fault, const RecoveryModel& model,
                     stats::RandomEngine& rng) {
  switch (fault) {
    case FaultClass::kHadbKillAllProcesses:
    case FaultClass::kHadbKillRandomProcess:
    case FaultClass::kHadbFastTerminate:
      return lognormal_around(model.hadb_restart_mean, model.lognormal_sigma,
                              rng);
    case FaultClass::kHadbNetworkUnplug:
      return lognormal_around(model.hadb_reboot_mean, model.lognormal_sigma,
                              rng);
    case FaultClass::kHadbPowerUnplug:
      // Node lost for good: companion rebuilds a spare.
      return lognormal_around(model.hadb_rebuild_mean, model.lognormal_sigma,
                              rng);
    case FaultClass::kAsKillProcesses:
      return lognormal_around(model.as_restart_mean, model.lognormal_sigma,
                              rng);
    case FaultClass::kAsNetworkUnplug:
      return lognormal_around(model.as_reboot_mean, model.lognormal_sigma,
                              rng);
    case FaultClass::kAsPowerUnplug:
      return lognormal_around(model.as_replace_mean, model.lognormal_sigma,
                              rng);
  }
  return 0.0;
}

// Checkpoint payload for one trial: the full InjectionRecord, exactly
// (times as IEEE-754 bit patterns), so a resumed campaign aggregates
// the same bits an uninterrupted one would.
std::vector<std::uint64_t> encode_record(const InjectionRecord& record) {
  return {static_cast<std::uint64_t>(record.fault),
          static_cast<std::uint64_t>(record.target),
          static_cast<std::uint64_t>(record.workload),
          static_cast<std::uint64_t>(record.mode),
          record.service_stayed_available ? 1ULL : 0ULL,
          record.target_recovered ? 1ULL : 0ULL,
          resil::f64_bits(record.recovery_time_hours)};
}

InjectionRecord decode_record(const std::vector<std::uint64_t>& words) {
  if (words.size() != 7 || words[0] >= std::size(kAllFaults) ||
      words[2] >= 3 || words[3] >= 3 || words[4] > 1 || words[5] > 1) {
    throw resil::CheckpointError(
        "run_campaign: checkpoint entry does not decode to a valid "
        "injection record");
  }
  InjectionRecord record;
  record.fault = static_cast<FaultClass>(words[0]);
  record.target = static_cast<HostId>(words[1]);
  record.workload = static_cast<WorkloadLevel>(words[2]);
  record.mode = static_cast<SystemMode>(words[3]);
  record.service_stayed_available = words[4] == 1;
  record.target_recovered = words[5] == 1;
  record.recovery_time_hours = resil::bits_f64(words[6]);
  return record;
}

// One injection: fault the target, observe availability, drive
// recovery, restore the testbed.  All randomness comes from the
// trial's own substream, so trials are independent of each other and
// of the thread that runs them.
InjectionRecord run_trial(std::size_t trial, Testbed& bed,
                          const std::vector<HostId>& hadb_hosts,
                          const std::vector<HostId>& as_hosts,
                          const RecoveryModel& recovery,
                          stats::RandomEngine rng) {
  const FaultClass fault = kAllFaults[trial % std::size(kAllFaults)];
  const std::vector<HostId>& pool =
      targets_hadb(fault) ? hadb_hosts : as_hosts;
  const HostId target = pool[rng.uniform_index(pool.size())];

  apply_fault(bed, fault, target, rng);

  InjectionRecord record;
  record.fault = fault;
  record.target = target;
  // Fluctuate the workload and occasionally combine the injection
  // with a rare operating mode, as the lab campaign did.
  record.workload = static_cast<WorkloadLevel>(rng.uniform_index(3));
  const double mode_pick = rng.uniform01();
  record.mode = mode_pick < 0.05   ? SystemMode::kRepair
                : mode_pick < 0.10 ? SystemMode::kDataReorganization
                                   : SystemMode::kNormal;
  double condition_factor = 1.0;
  switch (record.workload) {
    case WorkloadLevel::kIdle:
      condition_factor *= recovery.idle_factor;
      break;
    case WorkloadLevel::kModerate: break;
    case WorkloadLevel::kFullyLoaded:
      condition_factor *= recovery.full_load_factor;
      break;
  }
  switch (record.mode) {
    case SystemMode::kNormal: break;
    case SystemMode::kRepair:
      condition_factor *= recovery.repair_mode_factor;
      break;
    case SystemMode::kDataReorganization:
      condition_factor *= recovery.reorg_mode_factor;
      break;
  }
  // Single-fault tolerance: the redundant peer keeps the service up
  // while exactly one node is impaired.
  record.service_stayed_available = bed.service_available();
  // The watchdog / companion drives recovery; with probability
  // true_imperfect_recovery the recovery handler itself fails (the
  // event FIR models).
  record.target_recovered =
      !rng.bernoulli(recovery.true_imperfect_recovery);
  record.recovery_time_hours =
      recovery_time(fault, recovery, rng) * condition_factor;

  // Recovered automatically or repaired by operators — either way the
  // testbed is pristine before the next trial.
  bed.restore(target);
  return record;
}

}  // namespace

std::uint64_t campaign_checkpoint_digest(const CampaignOptions& options) {
  const RecoveryModel& recovery = options.recovery;
  resil::DigestBuilder digest;
  digest.add_str("campaign")
      .add_u64(options.seed)
      .add_u64(options.trials)
      // Probe the substream-derivation scheme (see uncertainty digest).
      .add_u64(stats::RandomEngine(options.seed).substream_seed(0))
      .add_f64(recovery.true_imperfect_recovery)
      .add_f64(recovery.hadb_restart_mean)
      .add_f64(recovery.hadb_reboot_mean)
      .add_f64(recovery.hadb_rebuild_mean)
      .add_f64(recovery.as_restart_mean)
      .add_f64(recovery.as_reboot_mean)
      .add_f64(recovery.as_replace_mean)
      .add_f64(recovery.lognormal_sigma)
      .add_f64(recovery.idle_factor)
      .add_f64(recovery.full_load_factor)
      .add_f64(recovery.repair_mode_factor)
      .add_f64(recovery.reorg_mode_factor);
  return digest.value();
}

CampaignResult run_campaign(const CampaignOptions& options) {
  const obs::Span span("faultinj.campaign");
  if (options.trials == 0) {
    throw std::invalid_argument("run_campaign: zero trials");
  }
  const stats::RandomEngine root(options.seed);
  const Testbed prototype = Testbed::jsas_lab();
  const std::vector<HostId> hadb_hosts =
      prototype.hosts_with_role(HostRole::kHadbNode);
  const std::vector<HostId> as_hosts =
      prototype.hosts_with_role(HostRole::kAppServer);

  // Each trial draws from its own root.split(trial) substream and
  // writes only its own record slot; every worker faults a private copy
  // of the testbed.
  std::vector<InjectionRecord> records(options.trials);
  const core::ResumableRun run = core::resumable_for(
      options.trials, options.threads, options.control,
      {.engine = "run_campaign",
       .progress = "campaign",
       .index_span = "faultinj.trial",
       .failed_counter = "faultinj.trials_failed",
       .make_worker =
           [&] {
             return [&, bed = prototype](std::size_t trial) mutable {
               records[trial] =
                   run_trial(trial, bed, hadb_hosts, as_hosts,
                             options.recovery, root.split(trial));
             };
           },
       .restore =
           [&](std::size_t trial, const std::vector<std::uint64_t>& words) {
             records[trial] = decode_record(words);
           },
       .encode =
           [&](std::size_t trial) { return encode_record(records[trial]); }});

  // Order-sensitive aggregation happens serially, in trial order, so
  // the summaries are bit-identical for every thread count.
  CampaignResult result;
  result.requested = options.trials;
  result.records.reserve(options.trials);
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    if (run.status[trial] == core::IndexStatus::kFailed) {
      result.failures.push_back({trial, run.errors[trial]});
      continue;
    }
    if (run.status[trial] != core::IndexStatus::kOk) continue;  // pending
    const InjectionRecord& record = records[trial];
    result.records.push_back(record);
    ++result.trials;
    if (record.service_stayed_available && record.target_recovered) {
      ++result.successes;
    }
    result.recovery_by_workload[static_cast<std::size_t>(record.workload)]
        .add(record.recovery_time_hours);
    switch (record.fault) {
      case FaultClass::kHadbKillAllProcesses:
      case FaultClass::kHadbKillRandomProcess:
      case FaultClass::kHadbFastTerminate:
        result.hadb_restart_times.add(record.recovery_time_hours);
        break;
      case FaultClass::kHadbPowerUnplug:
        result.hadb_rebuild_times.add(record.recovery_time_hours);
        break;
      case FaultClass::kAsKillProcesses:
        result.as_restart_times.add(record.recovery_time_hours);
        break;
      default:
        break;
    }
  }
  result.interrupted = run.interrupted;
  result.interrupt_reason = run.interrupt_reason;
  if (obs::enabled()) {
    obs::counter("faultinj.trials").add(result.trials);
    obs::counter("faultinj.successes").add(result.successes);
  }
  return result;
}

std::uint64_t simulate_longevity(double days, std::size_t machines,
                                 double true_rate_per_day,
                                 stats::RandomEngine& rng) {
  if (!(days > 0.0) || machines == 0 || true_rate_per_day < 0.0) {
    throw std::invalid_argument("simulate_longevity: bad arguments");
  }
  // Failures arrive as a Poisson process over the machine-days.
  const double exposure = days * static_cast<double>(machines);
  std::uint64_t failures = 0;
  if (true_rate_per_day == 0.0) return 0;
  double t = rng.exponential(true_rate_per_day);
  while (t < exposure) {
    ++failures;
    t += rng.exponential(true_rate_per_day);
  }
  return failures;
}

}  // namespace rascal::faultinj
