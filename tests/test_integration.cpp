// Cross-module integration tests: the full measurement -> estimation
// -> modeling -> analysis pipeline of the paper, plus consistency
// between the analytic solvers, the SPN route, and the discrete-event
// simulator.
#include <gtest/gtest.h>

#include "analysis/uncertainty.h"
#include "check/reference_solvers.h"
#include "check/spn_variants.h"
#include "core/hierarchy.h"
#include "core/units.h"
#include "ctmc/compose.h"
#include "ctmc/steady_state.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "faultinj/injector.h"
#include "models/jsas_system.h"
#include "models/params.h"
#include "report/table.h"
#include "sim/jsas_simulator.h"
#include "spn/reachability.h"
#include "stats/estimators.h"

namespace rascal {
namespace {

// Pipeline 1: run the (simulated) fault-injection campaign, estimate
// FIR with Equation 1, feed the bound into the model, and check the
// resulting availability is the paper's Config 1 number — i.e. the
// paper's own parameter-derivation chain is reproducible end to end.
TEST(Pipeline, CampaignToFirToModel) {
  faultinj::CampaignOptions campaign_options;
  campaign_options.trials = 3287;
  const auto campaign = faultinj::run_campaign(campaign_options);
  const double fir95 = campaign.fir_upper_bound(0.95);
  EXPECT_LT(fir95, 0.001);

  expr::ParameterSet params = models::default_parameters();
  params.set("hadb_FIR", fir95);
  const auto result =
      models::solve_jsas(models::JsasConfig::config1(), params);
  // FIR just below 0.1% is what the paper's default models: ~3.5 min.
  EXPECT_NEAR(result.downtime_minutes_per_year, 3.5, 0.1);
}

// Pipeline 2: the longevity run estimates the AS failure-rate bound
// (Equation 2); the paper instead picks the *more* conservative
// 52/year.  Using the measured bound must therefore predict a better
// availability than the headline number.
TEST(Pipeline, LongevityBoundIsLessConservativeThanPaperChoice) {
  stats::RandomEngine rng(7);
  const auto failures = faultinj::simulate_longevity(24.0, 2, 0.0, rng);
  EXPECT_EQ(failures, 0u);
  const double bound_per_day =
      stats::failure_rate_upper_bound(48.0, failures, 0.95);
  const double bound_per_hour = bound_per_day / 24.0;

  expr::ParameterSet measured = models::default_parameters();
  // Replace the total instance failure rate by the measured bound
  // (keep the same HW/OS split).
  measured.set("as_La_as", bound_per_hour - measured.get("as_La_os") -
                               measured.get("as_La_hw"));
  const auto with_bound =
      models::solve_jsas(models::JsasConfig::config1(), measured);
  const auto with_paper_choice = models::solve_jsas(
      models::JsasConfig::config1(), models::default_parameters());
  EXPECT_GT(with_bound.availability, with_paper_choice.availability);
}

// Consistency: hierarchical solve with SPN-generated submodels equals
// the hand-built-model solve to near machine precision.
TEST(Consistency, SpnRouteMatchesDirectRouteThroughHierarchy) {
  const auto params = models::default_parameters();

  const auto direct =
      models::solve_jsas(models::JsasConfig::config1(), params);

  // Build the same hierarchy but evaluate the submodels from their
  // SPN-generated chains.
  const auto as_generated = spn::generate_ctmc(
      check::app_server_spn(2, params), check::app_server_spn_reward());
  const auto hadb_generated = spn::generate_ctmc(
      check::hadb_pair_spn(params), check::hadb_pair_spn_reward());
  const auto as_eq = core::two_state_equivalent(
      as_generated.chain, ctmc::solve_steady_state(as_generated.chain));
  const auto hadb_eq = core::two_state_equivalent(
      hadb_generated.chain, ctmc::solve_steady_state(hadb_generated.chain));

  ctmc::SymbolicCtmc root;
  root.state("Ok", 1.0);
  root.state("AS_Fail", 0.0);
  root.state("HADB_Fail", 0.0);
  root.rate("Ok", "AS_Fail", "La_appl");
  root.rate("AS_Fail", "Ok", "Mu_appl");
  root.rate("Ok", "HADB_Fail", "2*La_pair");
  root.rate("HADB_Fail", "Ok", "Mu_pair");
  const auto chain = root.bind(expr::ParameterSet{}
                                   .set("La_appl", as_eq.lambda_eq)
                                   .set("Mu_appl", as_eq.mu_eq)
                                   .set("La_pair", hadb_eq.lambda_eq)
                                   .set("Mu_pair", hadb_eq.mu_eq));
  const auto metrics = core::solve_availability(chain);
  EXPECT_NEAR(metrics.availability, direct.availability, 1e-12);
}

// Consistency: production GTH and the LU reference agree across the
// whole hierarchy, on each submodel and then on the root.  (The
// iterative references are *expected* to struggle on chains this
// stiff — spectral gap ~1e-9 — which is exactly why GTH is the
// default; bench_solvers quantifies this.)
TEST(Consistency, DirectSolversAgreeOnFullHierarchy) {
  const auto config = models::JsasConfig::config2();
  expr::ParameterSet params = models::default_parameters();
  params.set("N_pair", 4.0);
  const core::HierarchicalResult gth =
      models::jsas_model(config).solve(params);
  ASSERT_EQ(gth.submodels.size(), 2u);

  // The chains the hierarchy solved, in its order: the two submodels
  // of models::jsas_model, then its root, each bound to the final
  // parameters (no submodel reads a later export).
  ctmc::SymbolicCtmc root;
  root.state("Ok", 1.0);
  root.state("AS_Fail", 0.0);
  root.state("HADB_Fail", 0.0);
  root.rate("Ok", "AS_Fail", "La_appl").rate("AS_Fail", "Ok", "Mu_appl");
  root.rate("Ok", "HADB_Fail", "N_pair*La_hadb_pair")
      .rate("HADB_Fail", "Ok", "Mu_hadb_pair");
  const expr::ParameterSet& bound = gth.effective_params;
  const std::vector<std::pair<ctmc::Ctmc, const ctmc::SteadyState*>> levels =
      {{models::app_server_n_instance_model(config.as_instances).bind(bound),
        &gth.submodels[0].steady},
       {models::hadb_pair_model().bind(bound), &gth.submodels[1].steady},
       {root.bind(bound), &gth.root_steady}};
  for (const auto& [chain, steady] : levels) {
    // The rebuilt chain is the one the hierarchy solved.
    ASSERT_EQ(ctmc::solve_steady_state(chain).probabilities,
              steady->probabilities);
    ctmc::SteadyState lu;
    lu.probabilities =
        check::solve_reference(chain, check::ReferenceSolver::kLu).pi;
    const auto want = core::availability_metrics(chain, *steady);
    const auto got = core::availability_metrics(chain, lu);
    EXPECT_NEAR(got.unavailability, want.unavailability,
                want.unavailability * 1e-6);
    EXPECT_NEAR(got.mtbf_hours, want.mtbf_hours, want.mtbf_hours * 1e-6);
  }
}

// Property sweep: the Figure-2 hierarchical abstraction stays within
// 0.1% of the exact flat product chain across random parameter draws,
// not just at the paper's defaults.
TEST(Consistency, HierarchyMatchesFlatCompositionAcrossParameters) {
  stats::RandomEngine rng(2026);
  for (int draw = 0; draw < 10; ++draw) {
    expr::ParameterSet params = models::default_parameters();
    params.set("as_La_as", rng.uniform(10.0, 200.0) / 8760.0);
    params.set("hadb_La_hadb", rng.uniform(1.0, 20.0) / 8760.0);
    params.set("hadb_La_hw", rng.uniform(0.5, 5.0) / 8760.0);
    params.set("hadb_FIR", rng.uniform(0.0, 0.005));
    params.set("as_Tstart_long", rng.uniform(0.25, 4.0));

    const auto hierarchical =
        models::solve_jsas(models::JsasConfig::config1(), params);

    const ctmc::Ctmc flat = ctmc::compose_independent(
        {models::app_server_two_instance_model().bind(params),
         models::hadb_pair_model().bind(params),
         models::hadb_pair_model().bind(params)});
    const auto exact = core::solve_availability(flat);

    EXPECT_NEAR(1.0 - hierarchical.availability, exact.unavailability,
                1e-3 * exact.unavailability)
        << "draw " << draw;
  }
}

// Consistency: the DES under exponential recoveries must agree with
// the analytic model.  To keep the test fast and statistically sharp,
// stress the failure rates so downtime events are frequent, and
// compare against the analytic solution *of the same parameters*.
TEST(Consistency, SimulatorTracksAnalyticModelUnderStress) {
  expr::ParameterSet stressed = models::default_parameters();
  stressed.set("as_La_as", 2000.0 / 8760.0)
      .set("hadb_La_hadb", 200.0 / 8760.0)
      .set("hadb_La_os", 100.0 / 8760.0)
      .set("hadb_La_hw", 100.0 / 8760.0)
      .set("as_La_os", 50.0 / 8760.0)
      .set("as_La_hw", 50.0 / 8760.0);

  const auto analytic =
      models::solve_jsas(models::JsasConfig::config1(), stressed);

  sim::JsasSimOptions options;
  options.duration = 30.0 * 8760.0;
  options.replications = 8;
  options.exponential_recoveries = true;
  options.seed = 17;
  const auto simulated =
      sim::simulate_jsas(models::JsasConfig::config1(), stressed, options);

  EXPECT_NEAR(simulated.availability, analytic.availability,
              3.0 * (analytic.availability *
                     (1.0 - analytic.availability)) +
                  2e-4);
  // MTBF within 15%.
  EXPECT_NEAR(simulated.mtbf_hours, analytic.mtbf_hours,
              0.15 * analytic.mtbf_hours);
}

// Ablation check from DESIGN.md: deterministic recovery times (the
// real system's behaviour) change availability only mildly relative
// to the exponential assumption.
TEST(Ablation, DeterministicRecoveriesStayInTheSameBallpark) {
  expr::ParameterSet stressed = models::default_parameters();
  stressed.set("as_La_as", 2000.0 / 8760.0)
      .set("hadb_La_hadb", 400.0 / 8760.0);

  sim::JsasSimOptions options;
  options.duration = 20.0 * 8760.0;
  options.replications = 4;
  options.seed = 23;

  options.exponential_recoveries = true;
  const auto exponential =
      sim::simulate_jsas(models::JsasConfig::config1(), stressed, options);
  options.exponential_recoveries = false;
  const auto deterministic =
      sim::simulate_jsas(models::JsasConfig::config1(), stressed, options);

  const double u_exp = 1.0 - exponential.availability;
  const double u_det = 1.0 - deterministic.availability;
  EXPECT_GT(u_det, u_exp * 0.3);
  EXPECT_LT(u_det, u_exp * 3.0);
}

// End-to-end report rendering of Table 2 (plumbing check).
TEST(Reporting, Table2Renders) {
  report::TextTable table(
      {"Configuration", "Availability", "Yearly Downtime", "YD AS",
       "YD HADB"});
  for (const auto& config :
       {models::JsasConfig::config1(), models::JsasConfig::config2()}) {
    const auto r = models::solve_jsas(config, models::default_parameters());
    table.add_row({config.name(),
                   report::format_percent(r.availability, 5),
                   report::format_fixed(r.downtime_minutes_per_year, 2) +
                       " min",
                   report::format_fixed(r.downtime_as_minutes, 2) + " min",
                   report::format_fixed(r.downtime_hadb_minutes, 2) +
                       " min"});
  }
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("99.999"), std::string::npos);
}

// The uncertainty machinery, the models, and the report layer in one
// pass (small sample count; the benches run the full 1,000).
TEST(Pipeline, UncertaintyScatterFeedsReport) {
  analysis::UncertaintyOptions options;
  options.samples = 60;
  const auto result = analysis::uncertainty_analysis(
      [](const expr::ParameterSet& p) {
        return models::solve_jsas(models::JsasConfig::config1(), p)
            .downtime_minutes_per_year;
      },
      models::default_parameters(),
      {{"as_La_as", 10.0 / 8760.0, 50.0 / 8760.0},
       {"hadb_FIR", 0.0, 0.002}},
      options);
  EXPECT_EQ(result.metrics.size(), 60u);
  EXPECT_GT(result.mean, 0.5);
  EXPECT_LT(result.mean, 20.0);
}

}  // namespace
}  // namespace rascal
