#include "faultinj/injector.h"

#include <gtest/gtest.h>

#include "faultinj/testbed.h"

namespace rascal::faultinj {
namespace {

TEST(Testbed, JsasLabMatchesTable1Topology) {
  const Testbed bed = Testbed::jsas_lab();
  EXPECT_EQ(bed.hosts_with_role(HostRole::kAppServer).size(), 2u);
  EXPECT_EQ(bed.hosts_with_role(HostRole::kHadbNode).size(), 4u);
  EXPECT_EQ(bed.hosts_with_role(HostRole::kLoadBalancer).size(), 1u);
  EXPECT_EQ(bed.hosts_with_role(HostRole::kDatabase).size(), 1u);
  EXPECT_EQ(bed.hosts_with_role(HostRole::kDirectory).size(), 1u);
  // Two DRU pairs of two nodes each.
  std::size_t pair0 = 0;
  std::size_t pair1 = 0;
  for (HostId id : bed.hosts_with_role(HostRole::kHadbNode)) {
    (*bed.host(id).hadb_pair == 0 ? pair0 : pair1) += 1;
  }
  EXPECT_EQ(pair0, 2u);
  EXPECT_EQ(pair1, 2u);
  EXPECT_TRUE(bed.service_available());
}

TEST(Testbed, FaultAndRecoverySurface) {
  Testbed bed = Testbed::jsas_lab();
  const HostId as = bed.hosts_with_role(HostRole::kAppServer)[0];
  EXPECT_TRUE(bed.functional(as));
  bed.kill_process(as, 0);
  EXPECT_FALSE(bed.functional(as));
  bed.restart_processes(as);
  EXPECT_TRUE(bed.functional(as));

  bed.disconnect_network(as);
  EXPECT_FALSE(bed.functional(as));
  bed.reconnect_network(as);
  EXPECT_TRUE(bed.functional(as));

  bed.power_off(as);
  EXPECT_FALSE(bed.functional(as));
  // Processes cannot restart without power.
  EXPECT_THROW(bed.restart_processes(as), std::logic_error);
  bed.restore(as);
  EXPECT_TRUE(bed.functional(as));
}

TEST(Testbed, SingleFaultsAreTolerated) {
  // Any single host failure must keep the service available — this is
  // exactly what the paper's manual fault injections verified.
  for (HostRole role : {HostRole::kAppServer, HostRole::kHadbNode}) {
    Testbed bed = Testbed::jsas_lab();
    const HostId victim = bed.hosts_with_role(role)[0];
    bed.power_off(victim);
    EXPECT_TRUE(bed.service_available());
  }
}

TEST(Testbed, DoubleFaultsInAPairTakeServiceDown) {
  Testbed bed = Testbed::jsas_lab();
  std::vector<HostId> pair0_nodes;
  for (HostId id : bed.hosts_with_role(HostRole::kHadbNode)) {
    if (*bed.host(id).hadb_pair == 0) pair0_nodes.push_back(id);
  }
  ASSERT_EQ(pair0_nodes.size(), 2u);
  bed.power_off(pair0_nodes[0]);
  EXPECT_TRUE(bed.service_available());
  bed.power_off(pair0_nodes[1]);
  EXPECT_FALSE(bed.service_available());
}

TEST(Testbed, NodesInDifferentPairsAreTolerated) {
  // The paper injected multi-node (not in a pair) failures too.
  Testbed bed = Testbed::jsas_lab();
  HostId in_pair0 = 0;
  HostId in_pair1 = 0;
  for (HostId id : bed.hosts_with_role(HostRole::kHadbNode)) {
    (*bed.host(id).hadb_pair == 0 ? in_pair0 : in_pair1) = id;
  }
  bed.power_off(in_pair0);
  bed.power_off(in_pair1);
  EXPECT_TRUE(bed.service_available());
}

TEST(Testbed, AllAsInstancesDownTakesServiceDown) {
  Testbed bed = Testbed::jsas_lab();
  for (HostId id : bed.hosts_with_role(HostRole::kAppServer)) {
    bed.kill_all_processes(id);
  }
  EXPECT_FALSE(bed.service_available());
}

TEST(Campaign, PerfectRecoveryReproducesPaperOutcome) {
  CampaignOptions options;
  options.trials = 3287;
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.trials, 3287u);
  // All single-fault injections recovered with the service available.
  EXPECT_EQ(result.successes, 3287u);
  // Equation 1 then bounds FIR below 0.1% at 95% and 0.2% at 99.5%.
  EXPECT_LT(result.fir_upper_bound(0.95), 0.001);
  EXPECT_LT(result.fir_upper_bound(0.995), 0.002);
}

TEST(Campaign, RecoveryTimesJustifyConservativeParameters) {
  CampaignOptions options;
  options.trials = 2000;
  const CampaignResult result = run_campaign(options);
  // Measured HADB restart ~40 s: below the model's 1 min parameter.
  EXPECT_GT(result.hadb_restart_times.count(), 100u);
  EXPECT_LT(result.hadb_restart_times.mean(), 1.0 / 60.0);
  EXPECT_GT(result.hadb_restart_times.mean(), 20.0 / 3600.0);
  // Measured spare rebuild ~12 min: below the model's 30 min.
  EXPECT_LT(result.hadb_rebuild_times.mean(), 0.5);
  // Measured AS restart ~25 s: below the model's 90 s.
  EXPECT_LT(result.as_restart_times.mean(), 90.0 / 3600.0);
}

TEST(Campaign, ImperfectRecoveryIsDetected) {
  CampaignOptions options;
  options.trials = 5000;
  options.recovery.true_imperfect_recovery = 0.05;
  const CampaignResult result = run_campaign(options);
  EXPECT_LT(result.successes, result.trials);
  const double observed =
      1.0 - static_cast<double>(result.successes) /
                static_cast<double>(result.trials);
  EXPECT_NEAR(observed, 0.05, 0.015);
  // The 95% bound must cover the truth.
  EXPECT_GT(result.fir_upper_bound(0.95), 0.05 - 0.015);
}

// Regression: a campaign where every recovery fails used to crash
// the report path (the zero-success coverage bound threw).  It must
// instead produce the vacuous-but-valid bound FIR <= 1.
TEST(Campaign, AllFailuresCampaignStillReportsBounds) {
  CampaignOptions options;
  options.trials = 50;
  options.recovery.true_imperfect_recovery = 1.0;
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.successes, 0u);
  double bound = 0.0;
  EXPECT_NO_THROW(bound = result.fir_upper_bound(0.95));
  EXPECT_DOUBLE_EQ(bound, 1.0);
}

TEST(Campaign, DeterministicGivenSeed) {
  CampaignOptions options;
  options.trials = 500;
  const auto a = run_campaign(options);
  const auto b = run_campaign(options);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_DOUBLE_EQ(a.hadb_restart_times.mean(),
                   b.hadb_restart_times.mean());
}

TEST(Campaign, CyclesThroughAllFaultClasses) {
  CampaignOptions options;
  options.trials = 16;
  const auto result = run_campaign(options);
  std::set<std::string> seen;
  for (const InjectionRecord& r : result.records) {
    seen.insert(to_string(r.fault));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Campaign, FluctuatesWorkloadAndModes) {
  CampaignOptions options;
  options.trials = 2000;
  const auto result = run_campaign(options);
  // All workload levels appear...
  for (std::size_t level = 0; level < 3; ++level) {
    EXPECT_GT(result.recovery_by_workload[level].count(), 400u) << level;
  }
  // ...and the rare modes are actually exercised.
  std::size_t repair = 0;
  std::size_t reorg = 0;
  for (const InjectionRecord& r : result.records) {
    repair += r.mode == SystemMode::kRepair ? 1 : 0;
    reorg += r.mode == SystemMode::kDataReorganization ? 1 : 0;
  }
  EXPECT_GT(repair, 50u);
  EXPECT_GT(reorg, 50u);
}

TEST(Campaign, RecoveryIsSlowerUnderFullLoad) {
  CampaignOptions options;
  options.trials = 4000;
  const auto result = run_campaign(options);
  const auto& idle =
      result.recovery_by_workload[static_cast<std::size_t>(
          WorkloadLevel::kIdle)];
  const auto& full =
      result.recovery_by_workload[static_cast<std::size_t>(
          WorkloadLevel::kFullyLoaded)];
  EXPECT_GT(full.mean(), idle.mean());
}

TEST(Campaign, WorkloadAndModeNamesRender) {
  EXPECT_EQ(to_string(WorkloadLevel::kIdle), "idle");
  EXPECT_EQ(to_string(WorkloadLevel::kFullyLoaded), "fully-loaded");
}

TEST(Campaign, RejectsZeroTrials) {
  CampaignOptions options;
  options.trials = 0;
  EXPECT_THROW((void)run_campaign(options), std::invalid_argument);
}

TEST(Longevity, ZeroTrueRateObservesNoFailures) {
  stats::RandomEngine rng(1);
  EXPECT_EQ(simulate_longevity(24.0, 2, 0.0, rng), 0u);
}

TEST(Longevity, FailureCountTracksExposure) {
  stats::RandomEngine rng(2);
  // 1000 machine-days at 0.1/day: ~100 failures.
  const auto failures = simulate_longevity(500.0, 2, 0.1, rng);
  EXPECT_NEAR(static_cast<double>(failures), 100.0, 35.0);
}

TEST(Longevity, Validation) {
  stats::RandomEngine rng(3);
  EXPECT_THROW((void)simulate_longevity(0.0, 2, 0.1, rng),
               std::invalid_argument);
  EXPECT_THROW((void)simulate_longevity(1.0, 0, 0.1, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace rascal::faultinj
