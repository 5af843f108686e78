// Tier-1 guarantee of the parallel sampling engine: every thread
// count — including 1 — produces bit-identical metrics, intervals,
// and summaries, because each trial/replication draws from its own
// RandomEngine::split(index) substream, the uncertainty draws are all
// made before the parallel region, and aggregation happens in index
// order after it.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "analysis/sensitivity.h"
#include "analysis/uncertainty.h"
#include "check/reference_twins.h"
#include "faultinj/injector.h"
#include "models/jsas_system.h"
#include "models/params.h"
#include "obs/trace.h"
#include "sim/jsas_simulator.h"
#include "stats/rng.h"

namespace rascal {
namespace {

const analysis::ModelFunction kQuadratic =
    [](const expr::ParameterSet& p) {
      const double x = p.get("x");
      return p.get("a") * x * x + p.get("b");
    };

const expr::ParameterSet kBase{{"a", 2.0}, {"b", 1.0}, {"x", 3.0}};

TEST(ParallelDeterminism, UncertaintyAnalysisIsThreadCountInvariant) {
  const std::vector<stats::ParameterRange> ranges = {{"x", 0.0, 2.0},
                                                     {"b", -1.0, 1.0}};
  analysis::UncertaintyOptions options;
  options.samples = 600;
  options.seed = 99;
  options.threads = 1;
  const auto serial =
      analysis::uncertainty_analysis(kQuadratic, kBase, ranges, options);
  options.threads = 8;
  const auto parallel =
      analysis::uncertainty_analysis(kQuadratic, kBase, ranges, options);

  ASSERT_EQ(parallel.metrics.size(), serial.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
    EXPECT_EQ(parallel.metrics[i], serial.metrics[i]) << i;
  }
  ASSERT_EQ(serial.draws.size(), serial.metrics.size() * ranges.size());
  EXPECT_EQ(parallel.draws, serial.draws);
  EXPECT_EQ(parallel.mean, serial.mean);
  EXPECT_EQ(parallel.interval80.lower, serial.interval80.lower);
  EXPECT_EQ(parallel.interval80.upper, serial.interval80.upper);
  EXPECT_EQ(parallel.interval90.lower, serial.interval90.lower);
  EXPECT_EQ(parallel.interval90.upper, serial.interval90.upper);
  EXPECT_EQ(parallel.summary.variance(), serial.summary.variance());
}

TEST(ParallelDeterminism, JsasUncertaintyWorkloadMatchesToo) {
  // A slice of the real Figure 7 workload: full model solves, not a
  // toy closed form.
  const models::JsasConfig config = models::JsasConfig::config1();
  analysis::UncertaintyOptions options;
  options.samples = 48;
  options.threads = 1;
  const std::vector<stats::ParameterRange> ranges = {
      {"as_La_as", 10.0 / 8760.0, 50.0 / 8760.0},
      {"hadb_FIR", 0.0, 0.002}};
  const analysis::ModelFunction model =
      [&config](const expr::ParameterSet& params) {
        return models::solve_jsas(config, params).downtime_minutes_per_year;
      };
  const auto serial = analysis::uncertainty_analysis(
      model, models::default_parameters(), ranges, options);
  options.threads = 8;
  const auto parallel = analysis::uncertainty_analysis(
      model, models::default_parameters(), ranges, options);
  EXPECT_EQ(parallel.metrics, serial.metrics);
  EXPECT_EQ(parallel.mean, serial.mean);
}

TEST(ParallelDeterminism, CampaignIsThreadCountInvariant) {
  faultinj::CampaignOptions options;
  options.trials = 1000;
  options.seed = 1973;
  options.threads = 1;
  const auto serial = faultinj::run_campaign(options);
  options.threads = 8;
  const auto parallel = faultinj::run_campaign(options);

  EXPECT_EQ(parallel.trials, serial.trials);
  EXPECT_EQ(parallel.successes, serial.successes);
  ASSERT_EQ(parallel.records.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(parallel.records[i].fault, serial.records[i].fault) << i;
    EXPECT_EQ(parallel.records[i].target, serial.records[i].target) << i;
    EXPECT_EQ(parallel.records[i].workload, serial.records[i].workload)
        << i;
    EXPECT_EQ(parallel.records[i].mode, serial.records[i].mode) << i;
    EXPECT_EQ(parallel.records[i].recovery_time_hours,
              serial.records[i].recovery_time_hours)
        << i;
  }
  EXPECT_EQ(parallel.hadb_restart_times.mean(),
            serial.hadb_restart_times.mean());
  EXPECT_EQ(parallel.hadb_restart_times.variance(),
            serial.hadb_restart_times.variance());
  EXPECT_EQ(parallel.as_restart_times.mean(),
            serial.as_restart_times.mean());
  for (std::size_t level = 0; level < 3; ++level) {
    EXPECT_EQ(parallel.recovery_by_workload[level].mean(),
              serial.recovery_by_workload[level].mean());
  }
}

// Telemetry lives outside the RNG stream: running the exact same
// campaign inside an active TraceSession (spans, counters, progress
// all live) must not move a single bit of the numerical output.
TEST(ParallelDeterminism, TracingDoesNotPerturbCampaignResults) {
  faultinj::CampaignOptions options;
  options.trials = 500;
  options.seed = 1973;
  options.threads = 4;
  const auto plain = faultinj::run_campaign(options);

  faultinj::CampaignResult traced;
  obs::Snapshot snapshot;
  {
    obs::TraceSession session;
    traced = faultinj::run_campaign(options);
    snapshot = session.stop();
  }

  EXPECT_EQ(traced.successes, plain.successes);
  ASSERT_EQ(traced.records.size(), plain.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_EQ(traced.records[i].recovery_time_hours,
              plain.records[i].recovery_time_hours)
        << i;
    EXPECT_EQ(traced.records[i].workload, plain.records[i].workload) << i;
  }
  EXPECT_EQ(traced.hadb_restart_times.mean(), plain.hadb_restart_times.mean());

  // ... and the session actually observed the run.
  std::uint64_t trials_counted = 0;
  for (const obs::CounterValue& c : snapshot.counters) {
    if (c.name == "faultinj.trials") trials_counted = c.value;
  }
  EXPECT_EQ(trials_counted, options.trials);
  bool saw_trial_span = false;
  for (const obs::SpanStat& span : snapshot.spans) {
    if (span.path.find("faultinj.trial") != std::string::npos) {
      saw_trial_span = true;
    }
  }
  EXPECT_TRUE(saw_trial_span);
}

TEST(ParallelDeterminism, SimulatorReplicationsAreThreadCountInvariant) {
  sim::JsasSimOptions options;
  options.duration = 2.0 * 8760.0;
  options.replications = 8;
  options.seed = 33;
  options.threads = 1;
  const auto serial = sim::simulate_jsas(models::JsasConfig::config1(),
                                         models::default_parameters(),
                                         options);
  options.threads = 8;
  const auto parallel = sim::simulate_jsas(models::JsasConfig::config1(),
                                           models::default_parameters(),
                                           options);

  EXPECT_EQ(parallel.availability, serial.availability);
  EXPECT_EQ(parallel.availability_ci95.lower, serial.availability_ci95.lower);
  EXPECT_EQ(parallel.downtime_minutes_per_year,
            serial.downtime_minutes_per_year);
  EXPECT_EQ(parallel.downtime_as_minutes, serial.downtime_as_minutes);
  EXPECT_EQ(parallel.downtime_hadb_minutes, serial.downtime_hadb_minutes);
  EXPECT_EQ(parallel.system_failures, serial.system_failures);
  EXPECT_EQ(parallel.as_cluster_failures, serial.as_cluster_failures);
  EXPECT_EQ(parallel.hadb_pair_failures, serial.hadb_pair_failures);
  EXPECT_EQ(parallel.imperfect_recoveries, serial.imperfect_recoveries);
  EXPECT_EQ(parallel.as_instance_failures, serial.as_instance_failures);
  EXPECT_EQ(parallel.hadb_node_failures, serial.hadb_node_failures);
}

TEST(ParallelDeterminism, SweepAndSensitivityAreThreadCountInvariant) {
  const std::vector<double> values = {0.0, 0.5, 1.0, 1.5, 2.0};
  const analysis::ContextModelFunction quadratic =
      [](const expr::ParameterSet& p, ctmc::SolveCache&) {
        return kQuadratic(p);
      };
  const auto serial =
      analysis::parametric_sweep(quadratic, kBase, "x", values, 1);
  const auto parallel =
      analysis::parametric_sweep(quadratic, kBase, "x", values, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].parameter_value, serial[i].parameter_value);
    EXPECT_EQ(parallel[i].metric, serial[i].metric);
  }

  const std::vector<stats::ParameterRange> ranges = {{"x", 0.0, 4.0},
                                                     {"b", 0.0, 1.0}};
  const auto bars1 = analysis::tornado_analysis(kQuadratic, kBase, ranges, 1);
  const auto bars4 = analysis::tornado_analysis(kQuadratic, kBase, ranges, 4);
  ASSERT_EQ(bars4.size(), bars1.size());
  for (std::size_t i = 0; i < bars1.size(); ++i) {
    EXPECT_EQ(bars4[i].parameter, bars1[i].parameter);
    EXPECT_EQ(bars4[i].metric_at_lo, bars1[i].metric_at_lo);
    EXPECT_EQ(bars4[i].metric_at_hi, bars1[i].metric_at_hi);
  }

  const auto sens1 = check::finite_difference_sensitivities(
      kQuadratic, kBase, {"x", "a", "b"}, 1e-4, 1);
  const auto sens4 = check::finite_difference_sensitivities(
      kQuadratic, kBase, {"x", "a", "b"}, 1e-4, 4);
  ASSERT_EQ(sens4.size(), sens1.size());
  for (std::size_t i = 0; i < sens1.size(); ++i) {
    EXPECT_EQ(sens4[i].parameter, sens1[i].parameter);
    EXPECT_EQ(sens4[i].derivative, sens1[i].derivative);
    EXPECT_EQ(sens4[i].elasticity, sens1[i].elasticity);
  }
}

TEST(ParallelDeterminism, SplitSubstreamsAreDecorrelatedOverCampaignRange) {
  // The campaign uses substreams 0..3286; the simulator uses 0..reps.
  // Check the first draw of every substream over the full campaign
  // range: uniform mean, no lag-1 correlation, no duplicated streams.
  const std::size_t n = 3287;
  const stats::RandomEngine root(1973);
  std::vector<double> first;
  first.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stats::RandomEngine sub = root.split(i);
    first.push_back(sub.uniform01());
  }

  double mean = 0.0;
  for (double v : first) mean += v;
  mean /= static_cast<double>(n);
  // Uniform(0,1) sd is ~0.289; 3 sigma over n=3287 is ~0.015.
  EXPECT_NEAR(mean, 0.5, 0.02);

  // Lag-1 Pearson correlation between adjacent substreams.
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double dx = first[i] - mean;
    const double dy = first[i + 1] - mean;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  EXPECT_LT(std::abs(sxy / std::sqrt(sxx * syy)), 0.06);

  // SplitMix-derived seeds must not collide anywhere in the range.
  const std::set<double> distinct(first.begin(), first.end());
  EXPECT_EQ(distinct.size(), n);
}

}  // namespace
}  // namespace rascal
