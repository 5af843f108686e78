// End-to-end validation against the numbers printed in the paper:
// Table 2 (system results), Table 3 (configuration comparison), and
// the qualitative shapes of Figures 5-8.
#include <gtest/gtest.h>

#include "analysis/parametric.h"
#include "analysis/uncertainty.h"
#include "core/units.h"
#include "models/jsas_system.h"
#include "models/params.h"

namespace rascal::models {
namespace {

double config_downtime(const JsasConfig& config,
                       const expr::ParameterSet& params) {
  return solve_jsas(config, params).downtime_minutes_per_year;
}

// ---- Table 2 ----------------------------------------------------------

TEST(Table2, Config1SystemResults) {
  const JsasResult r = solve_jsas(JsasConfig::config1(),
                                  default_parameters());
  // Paper: availability 99.99933%, yearly downtime 3.5 min.
  EXPECT_NEAR(r.availability, 0.9999933, 2e-7);
  EXPECT_NEAR(r.downtime_minutes_per_year, 3.5, 0.06);
  // YD due to AS submodel: 2.35 min (67%); HADB: 1.15 min (33%).
  EXPECT_NEAR(r.downtime_as_minutes, 2.35, 0.04);
  EXPECT_NEAR(r.downtime_hadb_minutes, 1.15, 0.03);
  const double as_share =
      r.downtime_as_minutes / r.downtime_minutes_per_year;
  EXPECT_NEAR(as_share, 0.67, 0.02);
}

TEST(Table2, Config2SystemResults) {
  const JsasResult r = solve_jsas(JsasConfig::config2(),
                                  default_parameters());
  // Paper: availability 99.99956%, yearly downtime 2.3 min.
  EXPECT_NEAR(r.availability, 0.9999956, 2e-7);
  EXPECT_NEAR(r.downtime_minutes_per_year, 2.3, 0.05);
  // YD due to AS: 0.01 s (< 0.01%); HADB dominates (99.99%).
  EXPECT_LT(r.downtime_as_minutes * 60.0, 0.05);  // seconds
  EXPECT_GT(r.downtime_hadb_minutes / r.downtime_minutes_per_year, 0.999);
}

// ---- Table 3 ----------------------------------------------------------

struct Table3Row {
  std::size_t instances;
  double availability;
  double downtime_minutes;
  double mtbf_hours;
};

class Table3 : public ::testing::TestWithParam<Table3Row> {};

TEST_P(Table3, RowReproduces) {
  const Table3Row row = GetParam();
  const JsasResult r = solve_jsas(JsasConfig::symmetric(row.instances),
                                  default_parameters());
  EXPECT_NEAR(r.availability, row.availability, 2.5e-7);
  EXPECT_NEAR(r.downtime_minutes_per_year, row.downtime_minutes,
              0.015 * row.downtime_minutes + 0.03);
  EXPECT_NEAR(r.mtbf_hours, row.mtbf_hours, 0.015 * row.mtbf_hours);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, Table3,
    ::testing::Values(Table3Row{1, 0.999629, 195.0, 168.0},
                      Table3Row{2, 0.9999933, 3.49, 89980.0},
                      Table3Row{4, 0.9999956, 2.29, 229326.0},
                      Table3Row{6, 0.9999934, 3.44, 152889.0},
                      Table3Row{8, 0.9999912, 4.58, 114669.0},
                      Table3Row{10, 0.9999891, 5.73, 91736.0}),
    [](const auto& param_info) {
      return "Instances" + std::to_string(param_info.param.instances);
    });

TEST(Table3, RedundancyBuysTwoNines) {
  // Paper: "redundancy and failover ... enhance system availability
  // by two 9's" from 1 to 2 instances.
  const expr::ParameterSet p = default_parameters();
  const double u1 = 1.0 - solve_jsas(JsasConfig::symmetric(1), p).availability;
  const double u2 = 1.0 - solve_jsas(JsasConfig::symmetric(2), p).availability;
  EXPECT_GT(u1 / u2, 50.0);
  EXPECT_LT(u1 / u2, 200.0);
}

TEST(Table3, FourByFourIsOptimal) {
  // Paper: 4 AS instances + 4 HADB pairs maximizes availability.
  const expr::ParameterSet p = default_parameters();
  const double a4 = solve_jsas(JsasConfig::symmetric(4), p).availability;
  for (std::size_t n : {1, 2, 6, 8, 10}) {
    EXPECT_GT(a4, solve_jsas(JsasConfig::symmetric(n), p).availability)
        << "n=" << n;
  }
}

TEST(Table3, FiveNinesLostAtTenPairs) {
  // Paper: "The 99.999% availability level can no longer hold when
  // the number of HADB node pairs reaches 10."
  const expr::ParameterSet p = default_parameters();
  EXPECT_LT(solve_jsas(JsasConfig::symmetric(10), p).availability, 0.99999);
  EXPECT_GT(solve_jsas(JsasConfig::symmetric(8), p).availability, 0.99999);
}

// ---- Figures 5 and 6 ---------------------------------------------------

TEST(Figure5, Config1LosesFiveNinesNear2Point5Hours) {
  const analysis::ContextModelFunction availability =
      [](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
        return solve_jsas(JsasConfig::config1(), params, cache).availability;
      };
  const auto sweep = analysis::parametric_sweep(
      availability, default_parameters(), "as_Tstart_long",
      {0.5, 1.0, 1.5, 2.0, 2.5, 3.0});
  // Monotone decreasing in the recovery time.
  for (std::size_t i = 0; i + 1 < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].metric, sweep[i + 1].metric);
  }
  // Five 9s hold at 2.0 h but not at 2.5 h (paper's crossover).
  EXPECT_GT(sweep[3].metric, 0.99999);
  EXPECT_LT(sweep[4].metric, 0.99999);
}

TEST(Figure6, Config2IsInsensitiveToAsRecoveryTime) {
  const analysis::ContextModelFunction availability =
      [](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
        return solve_jsas(JsasConfig::config2(), params, cache).availability;
      };
  const auto sweep = analysis::parametric_sweep(
      availability, default_parameters(), "as_Tstart_long", {0.5, 3.0});
  // Paper: still above 99.9995% at 3 hours; variation only in the
  // 9th decimal place.
  EXPECT_GT(sweep[1].metric, 0.999995);
  EXPECT_LT(sweep[0].metric - sweep[1].metric, 1e-8);
}

// ---- Figures 7 and 8 (reduced sample size; full runs in bench) --------

std::vector<stats::ParameterRange> paper_uncertainty_ranges() {
  return {{"as_La_as", 10.0 / 8760.0, 50.0 / 8760.0},
          {"hadb_La_hadb", 1.0 / 8760.0, 4.0 / 8760.0},
          {"as_La_os", 0.5 / 8760.0, 2.0 / 8760.0},
          {"as_La_hw", 0.5 / 8760.0, 2.0 / 8760.0},
          {"hadb_La_os", 0.5 / 8760.0, 2.0 / 8760.0},
          {"hadb_La_hw", 0.5 / 8760.0, 2.0 / 8760.0},
          {"as_Tstart_long", 0.5, 3.0},
          {"hadb_FIR", 0.0, 0.002}};
}

TEST(Figure7, Config1UncertaintyStatistics) {
  analysis::UncertaintyOptions options;
  options.samples = 300;
  const auto result = analysis::uncertainty_analysis(
      [](const expr::ParameterSet& params) {
        return config_downtime(JsasConfig::config1(), params);
      },
      default_parameters(), paper_uncertainty_ranges(), options);
  // Paper: mean 3.78 min, 80% CI (1.89, 6.02).  Allow sampling error.
  EXPECT_NEAR(result.mean, 3.78, 0.35);
  EXPECT_NEAR(result.interval80.lower, 1.89, 0.45);
  EXPECT_NEAR(result.interval80.upper, 6.02, 0.60);
  // "Over 80% of sampled systems have yearly downtime < 5.25 min."
  EXPECT_GT(result.fraction_below(5.25), 0.8);
}

TEST(Figure8, Config2UncertaintyStatistics) {
  analysis::UncertaintyOptions options;
  options.samples = 300;
  const auto result = analysis::uncertainty_analysis(
      [](const expr::ParameterSet& params) {
        return config_downtime(JsasConfig::config2(), params);
      },
      default_parameters(), paper_uncertainty_ranges(), options);
  // Paper: mean 2.99 min, 80% CI (1.01, 5.19), >90% below 5.25 min.
  EXPECT_NEAR(result.mean, 2.99, 0.35);
  EXPECT_GT(result.fraction_below(5.25), 0.9);
}

// ---- configuration plumbing -------------------------------------------

TEST(JsasConfig, NamedConfigurations) {
  EXPECT_EQ(JsasConfig::config1().as_instances, 2u);
  EXPECT_EQ(JsasConfig::config1().hadb_pairs, 2u);
  EXPECT_EQ(JsasConfig::config2().as_instances, 4u);
  EXPECT_EQ(JsasConfig::config2().hadb_pairs, 4u);
  EXPECT_EQ(JsasConfig::symmetric(6).hadb_pairs, 6u);
  EXPECT_FALSE(JsasConfig::config1().name().empty());
}

TEST(JsasModel, RejectsDegenerateConfigs) {
  EXPECT_THROW((void)jsas_model({1, 2, 2}), std::invalid_argument);
  EXPECT_THROW((void)jsas_model({2, 0, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace rascal::models
