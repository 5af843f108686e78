#include "check/paper_golden.h"

#include <stdexcept>
#include <utility>

#include "analysis/uncertainty.h"
#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "models/hadb_pair.h"
#include "models/hadb_spares.h"
#include "models/jsas_system.h"
#include "models/kofn_as.h"
#include "models/params.h"

namespace rascal::check {

namespace {

// Tolerance policy (see TESTING.md).
constexpr double kAnalyticRelTol = 1e-6;
constexpr double kMonteCarloRelTol = 1e-3;

GoldenEntry analytic(double value) {
  return {value, 0.0, kAnalyticRelTol};
}

GoldenEntry sampled(double value) {
  return {value, 1e-9, kMonteCarloRelTol};
}

void add_jsas_config(GoldenRecord& record, const std::string& prefix,
                     const models::JsasConfig& config) {
  const models::JsasResult r =
      models::solve_jsas(config, models::default_parameters());
  record[prefix + ".availability"] = analytic(r.availability);
  record[prefix + ".downtime_minutes_per_year"] =
      analytic(r.downtime_minutes_per_year);
  record[prefix + ".downtime_as_minutes"] = analytic(r.downtime_as_minutes);
  record[prefix + ".downtime_hadb_minutes"] =
      analytic(r.downtime_hadb_minutes);
  record[prefix + ".mtbf_hours"] = analytic(r.mtbf_hours);
}

GoldenRecord jsas_golden() {
  GoldenRecord record;
  add_jsas_config(record, "jsas.config1", models::JsasConfig::config1());
  add_jsas_config(record, "jsas.config2", models::JsasConfig::config2());
  for (const std::size_t n : {1, 2, 4, 6, 8, 10}) {
    const models::JsasResult r = models::solve_jsas(
        models::JsasConfig::symmetric(n), models::default_parameters());
    const std::string prefix = "jsas.table3.n" + std::to_string(n);
    record[prefix + ".availability"] = analytic(r.availability);
    record[prefix + ".downtime_minutes_per_year"] =
        analytic(r.downtime_minutes_per_year);
    record[prefix + ".mtbf_hours"] = analytic(r.mtbf_hours);
  }
  return record;
}

GoldenRecord hadb_golden() {
  GoldenRecord record;
  const expr::ParameterSet params = models::default_parameters();
  const auto pair_metrics =
      core::solve_availability(models::hadb_pair_model().bind(params));
  record["hadb.pair.availability"] = analytic(pair_metrics.availability);
  record["hadb.pair.downtime_minutes_per_year"] =
      analytic(pair_metrics.downtime_minutes_per_year);
  record["hadb.pair.mtbf_hours"] = analytic(pair_metrics.mtbf_hours);
  record["hadb.pair.mttr_hours"] = analytic(pair_metrics.mttr_hours);

  // Explicit spare pool, 24 h replenishment (the recovery-metric
  // scenario of the extension model).
  expr::ParameterSet spares_params = params;
  spares_params.set(models::kTreplenishParam, 24.0);
  for (const std::size_t spares : {1, 2}) {
    const auto metrics = core::solve_availability(
        models::hadb_pair_with_spares_model(spares, spares_params));
    const std::string prefix = "hadb.spares" + std::to_string(spares);
    record[prefix + ".availability"] = analytic(metrics.availability);
    record[prefix + ".downtime_minutes_per_year"] =
        analytic(metrics.downtime_minutes_per_year);
    record[prefix + ".mttr_hours"] = analytic(metrics.mttr_hours);
  }
  return record;
}

// The Section 7 parameter ranges (same as tests/test_jsas_results.cpp).
std::vector<stats::ParameterRange> uncertainty_ranges() {
  return {{"as_La_as", 10.0 / 8760.0, 50.0 / 8760.0},
          {"hadb_La_hadb", 1.0 / 8760.0, 4.0 / 8760.0},
          {"as_La_os", 0.5 / 8760.0, 2.0 / 8760.0},
          {"as_La_hw", 0.5 / 8760.0, 2.0 / 8760.0},
          {"hadb_La_os", 0.5 / 8760.0, 2.0 / 8760.0},
          {"hadb_La_hw", 0.5 / 8760.0, 2.0 / 8760.0},
          {"as_Tstart_long", 0.5, 3.0},
          {"hadb_FIR", 0.0, 0.002}};
}

void add_uncertainty_config(GoldenRecord& record, const std::string& prefix,
                            const models::JsasConfig& config) {
  analysis::UncertaintyOptions options;
  options.samples = 300;
  options.seed = 2004;
  const auto result = analysis::uncertainty_analysis(
      [&config](const expr::ParameterSet& params) {
        return models::solve_jsas(config, params).downtime_minutes_per_year;
      },
      models::default_parameters(), uncertainty_ranges(), options);
  record[prefix + ".mean_downtime_minutes"] = sampled(result.mean);
  record[prefix + ".interval80_lower"] = sampled(result.interval80.lower);
  record[prefix + ".interval80_upper"] = sampled(result.interval80.upper);
  record[prefix + ".interval90_lower"] = sampled(result.interval90.lower);
  record[prefix + ".interval90_upper"] = sampled(result.interval90.upper);
  record[prefix + ".fraction_below_5.25min"] =
      sampled(result.fraction_below(5.25));
}

GoldenRecord uncertainty_golden() {
  GoldenRecord record;
  add_uncertainty_config(record, "uncertainty.config1",
                         models::JsasConfig::config1());
  add_uncertainty_config(record, "uncertainty.config2",
                         models::JsasConfig::config2());
  return record;
}

// k-of-n replicated-AS tier, solved through the sparse Krylov path
// (GMRES is forced via a sparse_threshold below the state count, so
// this record regresses the Krylov engine end to end, not GTH).
GoldenRecord kofn_as_golden() {
  GoldenRecord record;
  ctmc::SolveControl control;
  control.sparse_threshold = 8;  // every config below exceeds this
  for (const auto& [quorum, label] :
       {std::pair<std::size_t, const char*>{4, "quorum4"},
        std::pair<std::size_t, const char*>{6, "quorum6"}}) {
    models::KofnAsConfig config;
    config.nodes = 6;
    config.quorum = quorum;
    config.repair_crews = 2;
    const ctmc::Ctmc chain = models::kofn_as_model(config);
    const auto steady = ctmc::solve_steady_state(
        chain, ctmc::SteadyStateMethod::kGmres, ctmc::Validation::kOn,
        control);
    const auto metrics = core::availability_metrics(chain, steady);
    const std::string prefix = std::string("kofn_as.n6.") + label;
    record[prefix + ".availability"] = analytic(metrics.availability);
    record[prefix + ".downtime_minutes_per_year"] =
        analytic(metrics.downtime_minutes_per_year);
    record[prefix + ".mtbf_hours"] = analytic(metrics.mtbf_hours);
    record[prefix + ".mttr_hours"] = analytic(metrics.mttr_hours);
  }
  return record;
}

}  // namespace

std::vector<std::string> paper_golden_groups() {
  return {"jsas", "hadb", "uncertainty", "kofn_as"};
}

GoldenRecord compute_paper_golden(const std::string& group) {
  if (group == "jsas") return jsas_golden();
  if (group == "hadb") return hadb_golden();
  if (group == "uncertainty") return uncertainty_golden();
  if (group == "kofn_as") return kofn_as_golden();
  throw std::invalid_argument("unknown golden group: " + group);
}

}  // namespace rascal::check
