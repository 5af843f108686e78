// Tests for the beyond-the-paper extensions: the finite-spare-pool
// HADB model and the dual-cluster rolling-upgrade model.
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/units.h"
#include "ctmc/steady_state.h"
#include "lint/lint.h"
#include "models/hadb_pair.h"
#include "models/hadb_spares.h"
#include "models/jsas_system.h"
#include "models/params.h"
#include "models/upgrade.h"

namespace rascal::models {
namespace {

expr::ParameterSet spares_params(double t_replenish_hours) {
  expr::ParameterSet p = default_parameters();
  p.set(kTreplenishParam, t_replenish_hours);
  return p;
}

TEST(HadbSpares, StructureAndStateCount) {
  const ctmc::Ctmc chain = hadb_pair_with_spares_model(2, spares_params(24.0));
  // 6 conditions x 3 pool levels + WaitSpare only at level 0:
  // (7 conditions - 1) * 3 + 1 = 19.
  EXPECT_EQ(chain.num_states(), 19u);
  EXPECT_TRUE(chain.find_state("WaitSpare/s0").has_value());
  EXPECT_FALSE(chain.find_state("WaitSpare/s1").has_value());
  EXPECT_FALSE(
      lint::lint_ctmc(chain).has_code(lint::codes::kNotIrreducible));
}

TEST(HadbSpares, FastReplenishmentConvergesToFigureThree) {
  // With near-instant spare replacement the pool is effectively
  // infinite and the model must reproduce the Figure 3 result.
  const auto figure3 =
      core::solve_availability(hadb_pair_model().bind(default_parameters()));
  const auto with_pool = core::solve_availability(
      hadb_pair_with_spares_model(2, spares_params(1e-4)));
  EXPECT_NEAR(with_pool.unavailability, figure3.unavailability,
              figure3.unavailability * 1e-3);
}

TEST(HadbSpares, FigureThreeIsTheOptimisticLimit) {
  // Any finite replenishment time must do worse than the paper's
  // always-a-spare assumption.
  const auto figure3 =
      core::solve_availability(hadb_pair_model().bind(default_parameters()));
  const auto realistic = core::solve_availability(
      hadb_pair_with_spares_model(2, spares_params(72.0)));
  EXPECT_GE(realistic.unavailability, figure3.unavailability);
}

TEST(HadbSpares, MoreSparesNeverHurt) {
  const auto params = spares_params(168.0);  // one-week replacement SLA
  double previous = 1.0;
  for (std::size_t spares : {1, 2, 4}) {
    const auto m = core::solve_availability(
        hadb_pair_with_spares_model(spares, params));
    EXPECT_LE(m.unavailability, previous + 1e-18) << spares;
    previous = m.unavailability;
  }
}

TEST(HadbSpares, SlowerReplenishmentHurts) {
  const auto fast = core::solve_availability(
      hadb_pair_with_spares_model(2, spares_params(24.0)));
  const auto slow = core::solve_availability(
      hadb_pair_with_spares_model(2, spares_params(24.0 * 30.0)));
  EXPECT_GT(slow.unavailability, fast.unavailability);
}

TEST(HadbSpares, Validation) {
  EXPECT_THROW((void)hadb_pair_with_spares_model(0, spares_params(24.0)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)hadb_pair_with_spares_model(2, default_parameters()),
      expr::UnknownParameterError);
  EXPECT_THROW((void)hadb_pair_with_spares_model(2, spares_params(0.0)),
               std::invalid_argument);
}

TEST(UpgradeModel, StructureAndParameters) {
  const auto model = dual_cluster_upgrade_model();
  EXPECT_EQ(model.num_states(), 5u);
  const auto params = model.parameters();
  EXPECT_TRUE(params.count("La_cluster"));
  EXPECT_TRUE(params.count("La_upgrade"));
  EXPECT_TRUE(params.count("T_switch"));
}

TEST(UpgradeModel, DualClusterEliminatesUnplannedDowntime) {
  // With no upgrades scheduled, the dual 2x2 deployment only fails on
  // a double cluster fault, crushing the single cluster's ~3.5 min/yr
  // (Table 2) by orders of magnitude.
  auto params = upgrade_parameters_for(default_parameters(), 2, 2,
                                       /*upgrades_per_year=*/12.0,
                                       /*t_upgrade_hours=*/2.0,
                                       /*t_switch_hours=*/30.0 / 3600.0);
  params.set("La_upgrade", 0.0);
  const auto dual = core::solve_availability(
      dual_cluster_upgrade_model().bind(params));
  const auto single = solve_jsas(JsasConfig::config1(),
                                 default_parameters());
  EXPECT_LT(dual.downtime_minutes_per_year,
            single.downtime_minutes_per_year / 100.0);
}

TEST(UpgradeModel, PlannedSwitchoverDominatesDualClusterDowntime) {
  // The interesting trade-off: with monthly upgrades and a 30 s
  // cut-over, planned downtime (~12 x 30 s = 6 min/yr) exceeds the
  // single cluster's unplanned 3.5 min/yr.  Online upgrades are not
  // free; the cut-over path is what needs engineering.
  const auto params = upgrade_parameters_for(default_parameters(), 2, 2,
                                             12.0, 2.0, 30.0 / 3600.0);
  const auto chain = dual_cluster_upgrade_model().bind(params);
  const auto steady = ctmc::solve_steady_state(chain);
  const auto attribution = core::downtime_by_state(chain, steady);
  double switchover_minutes = 0.0;
  double alldown_minutes = 0.0;
  for (const auto& entry : attribution) {
    if (chain.state_name(entry.state) == "Switchover") {
      switchover_minutes = entry.minutes_per_year;
    } else {
      alldown_minutes = entry.minutes_per_year;
    }
  }
  EXPECT_NEAR(switchover_minutes, 6.0, 0.5);
  EXPECT_LT(alldown_minutes, 0.05);
}

TEST(UpgradeModel, SwitchoverCostScalesWithUpgradeFrequency) {
  // 12 upgrades/yr with a 30 s cut-over contribute ~6 min/yr of
  // planned downtime; 52/yr contribute ~26 min.
  const auto base = default_parameters();
  const auto monthly = core::solve_availability(
      dual_cluster_upgrade_model().bind(
          upgrade_parameters_for(base, 2, 2, 12.0, 2.0, 30.0 / 3600.0)));
  const auto weekly = core::solve_availability(
      dual_cluster_upgrade_model().bind(
          upgrade_parameters_for(base, 2, 2, 52.0, 2.0, 30.0 / 3600.0)));
  EXPECT_GT(weekly.downtime_minutes_per_year,
            3.5 * monthly.downtime_minutes_per_year);
  EXPECT_NEAR(monthly.downtime_minutes_per_year, 6.0, 1.5);
}

TEST(UpgradeModel, ZeroSwitchoverTimeRemovesPlannedDowntime) {
  // T_switch -> 0: the Switchover state holds no probability mass and
  // downtime comes only from double-cluster faults (tiny).
  auto params = upgrade_parameters_for(default_parameters(), 2, 2, 12.0, 2.0,
                                       30.0 / 3600.0);
  params.set("T_switch", 1e-9);
  const auto m = core::solve_availability(
      dual_cluster_upgrade_model().bind(params));
  EXPECT_LT(m.downtime_minutes_per_year, 0.1);
}

TEST(UpgradeModel, LongerUpgradesIncreaseDoubleFaultExposure) {
  // Longer single-cluster windows mean more time at reduced
  // redundancy: the probability of the AllDown state must grow.
  const auto base = default_parameters();
  const auto p_alldown = [&](double t_upgrade_hours) {
    const auto chain = dual_cluster_upgrade_model().bind(
        upgrade_parameters_for(base, 2, 2, 12.0, t_upgrade_hours,
                               30.0 / 3600.0));
    return ctmc::solve_steady_state(chain).probability(
        chain.state("AllDown"));
  };
  EXPECT_GT(p_alldown(24.0), p_alldown(1.0));
}

}  // namespace
}  // namespace rascal::models
