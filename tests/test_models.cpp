#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/units.h"
#include "ctmc/steady_state.h"
#include "lint/lint.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "models/params.h"
#include "models/single_instance.h"

namespace rascal::models {
namespace {

TEST(DefaultParameters, MatchSectionFive) {
  const expr::ParameterSet p = default_parameters();
  EXPECT_NEAR(p.get("as_La_as"), 50.0 / 8760.0, 1e-15);
  EXPECT_NEAR(p.get("as_La_os"), 1.0 / 8760.0, 1e-15);
  EXPECT_NEAR(p.get("as_La_hw"), 1.0 / 8760.0, 1e-15);
  EXPECT_NEAR(p.get("as_Trecovery"), 5.0 / 3600.0, 1e-15);
  EXPECT_NEAR(p.get("as_Tstart_short"), 90.0 / 3600.0, 1e-15);
  EXPECT_DOUBLE_EQ(p.get("as_Tstart_long"), 1.0);
  EXPECT_DOUBLE_EQ(p.get("as_Tstart_all"), 0.5);
  EXPECT_NEAR(p.get("hadb_La_hadb"), 2.0 / 8760.0, 1e-15);
  EXPECT_NEAR(p.get("hadb_Tstart_short"), 1.0 / 60.0, 1e-15);
  EXPECT_NEAR(p.get("hadb_Tstart_long"), 0.25, 1e-15);
  EXPECT_DOUBLE_EQ(p.get("hadb_Trepair"), 0.5);
  EXPECT_DOUBLE_EQ(p.get("hadb_Trestore"), 1.0);
  EXPECT_DOUBLE_EQ(p.get("hadb_FIR"), 0.001);
  EXPECT_DOUBLE_EQ(p.get("Acc"), 2.0);
}

TEST(HadbPairModel, HasFigureThreeStructure) {
  const ctmc::Ctmc chain = hadb_pair_model().bind(default_parameters());
  EXPECT_EQ(chain.num_states(), 6u);
  for (const char* name :
       {"Ok", "RestartShort", "RestartLong", "Repair", "Maintenance",
        "2_Down"}) {
    EXPECT_TRUE(chain.find_state(name).has_value()) << name;
  }
  // Only 2_Down is a failure state.
  EXPECT_EQ(chain.states_with_reward_below(0.5),
            std::vector<ctmc::StateId>{chain.state("2_Down")});
  EXPECT_FALSE(
      lint::lint_ctmc(chain).has_code(lint::codes::kNotIrreducible));
}

TEST(HadbPairModel, RatesMatchFigureThree) {
  const expr::ParameterSet p = default_parameters();
  const ctmc::Ctmc chain = hadb_pair_model().bind(p);
  const double la = (2.0 + 1.0 + 1.0) / 8760.0;
  EXPECT_NEAR(chain.rate(chain.state("Ok"), chain.state("RestartShort")),
              2.0 * (2.0 / 8760.0) * 0.999, 1e-12);
  EXPECT_NEAR(chain.rate(chain.state("Ok"), chain.state("2_Down")),
              2.0 * la * 0.001, 1e-12);
  EXPECT_NEAR(chain.rate(chain.state("RestartShort"), chain.state("2_Down")),
              2.0 * la, 1e-12);
  EXPECT_NEAR(chain.rate(chain.state("RestartShort"), chain.state("Ok")),
              60.0, 1e-9);
  EXPECT_NEAR(chain.rate(chain.state("2_Down"), chain.state("Ok")), 1.0,
              1e-12);
  EXPECT_NEAR(chain.rate(chain.state("Ok"), chain.state("Maintenance")),
              4.0 / 8760.0, 1e-12);
}

TEST(HadbPairModel, ZeroFirRemovesDirectFailureEdge) {
  expr::ParameterSet p = default_parameters();
  p.set("hadb_FIR", 0.0);
  const ctmc::Ctmc chain = hadb_pair_model().bind(p);
  EXPECT_DOUBLE_EQ(chain.rate(chain.state("Ok"), chain.state("2_Down")),
                   0.0);
}

TEST(AppServerTwoInstance, HasFigureFourStructure) {
  const ctmc::Ctmc chain =
      app_server_two_instance_model().bind(default_parameters());
  EXPECT_EQ(chain.num_states(), 5u);
  for (const char* name :
       {"All_Work", "Recovery", "1DownShort", "1DownLong", "2_Down"}) {
    EXPECT_TRUE(chain.find_state(name).has_value()) << name;
  }
  EXPECT_FALSE(
      lint::lint_ctmc(chain).has_code(lint::codes::kNotIrreducible));
}

TEST(AppServerTwoInstance, RatesMatchFigureFour) {
  const ctmc::Ctmc chain =
      app_server_two_instance_model().bind(default_parameters());
  const double la = 52.0 / 8760.0;
  const double fss = 50.0 / 52.0;
  EXPECT_NEAR(chain.rate(chain.state("All_Work"), chain.state("Recovery")),
              2.0 * la, 1e-12);
  EXPECT_NEAR(chain.rate(chain.state("Recovery"), chain.state("1DownShort")),
              fss / (5.0 / 3600.0), 1e-9);
  EXPECT_NEAR(chain.rate(chain.state("Recovery"), chain.state("1DownLong")),
              (1.0 - fss) / (5.0 / 3600.0), 1e-9);
  EXPECT_NEAR(chain.rate(chain.state("1DownShort"), chain.state("All_Work")),
              3600.0 / 90.0, 1e-9);
  EXPECT_NEAR(chain.rate(chain.state("1DownLong"), chain.state("2_Down")),
              2.0 * la, 1e-12);
  EXPECT_NEAR(chain.rate(chain.state("2_Down"), chain.state("All_Work")),
              2.0, 1e-12);
}

TEST(AppServerNInstance, StateCountFormula) {
  // Occupancy vectors (r, s, l) with r+s+l <= n-1, C(n+2, 3) of them,
  // plus All_Down.
  for (std::size_t n : {2, 3, 4, 6, 8, 10}) {
    const ctmc::Ctmc chain =
        app_server_n_instance_model(n).bind(default_parameters());
    EXPECT_EQ(chain.num_states(), (n + 2) * (n + 1) * n / 6 + 1)
        << "n=" << n;
    EXPECT_FALSE(
        lint::lint_ctmc(chain).has_code(lint::codes::kNotIrreducible))
        << "n=" << n;
  }
  EXPECT_EQ(app_server_n_instance_model(2).num_states(), 5u);
  EXPECT_EQ(app_server_n_instance_model(4).num_states(), 21u);
  EXPECT_EQ(app_server_n_instance_model(10).num_states(), 221u);
}

TEST(AppServerNInstance, ReducesToFigureFourForTwoInstances) {
  const expr::ParameterSet p = default_parameters();
  const auto explicit_metrics =
      core::solve_availability(app_server_two_instance_model().bind(p));
  const auto general_metrics =
      core::solve_availability(app_server_n_instance_model(2).bind(p));
  EXPECT_NEAR(general_metrics.availability, explicit_metrics.availability,
              1e-14);
  EXPECT_NEAR(general_metrics.failure_frequency,
              explicit_metrics.failure_frequency, 1e-18);
}

TEST(AppServerNInstance, MoreInstancesImproveAvailability) {
  const expr::ParameterSet p = default_parameters();
  double previous_unavailability = 1.0;
  for (std::size_t n : {2, 3, 4}) {
    const auto m =
        core::solve_availability(app_server_n_instance_model(n).bind(p));
    EXPECT_LT(m.unavailability, previous_unavailability) << "n=" << n;
    previous_unavailability = m.unavailability;
  }
}

TEST(AppServerNInstance, RejectsFewerThanTwo) {
  EXPECT_THROW((void)app_server_n_instance_model(1), std::invalid_argument);
  EXPECT_THROW((void)app_server_n_instance_model(0), std::invalid_argument);
}

TEST(AppServerNInstance, PerformabilityRewardOnRecoveryStates) {
  const ctmc::Ctmc chain =
      app_server_n_instance_model(2, 0.5).bind(default_parameters());
  // The (r=1) state carries the degraded reward.
  bool found_degraded = false;
  for (ctmc::StateId s = 0; s < chain.num_states(); ++s) {
    if (chain.reward(s) == 0.5) found_degraded = true;
  }
  EXPECT_TRUE(found_degraded);
}

TEST(SingleInstance, MatchesHandComputedDowntime) {
  // 50 AS failures/yr x 1.5 min + 2 HW/OS failures/yr x 60 min
  // = 195 min/yr (Table 3 row 1).
  const auto metrics =
      core::solve_availability(single_instance_model().bind(
          default_parameters()));
  EXPECT_NEAR(metrics.downtime_minutes_per_year, 195.0, 0.1);
  EXPECT_NEAR(metrics.availability, 0.999629, 1e-6);
  EXPECT_NEAR(metrics.mtbf_hours, 8760.0 / 52.0, 0.15);
}

}  // namespace
}  // namespace rascal::models
