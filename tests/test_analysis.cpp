#include <gtest/gtest.h>

#include <cmath>

#include "analysis/parametric.h"
#include "analysis/sensitivity.h"
#include "analysis/uncertainty.h"
#include "check/reference_twins.h"

namespace rascal::analysis {
namespace {

// Simple quadratic test model: y = a*x^2 + b.
const ModelFunction kQuadratic = [](const expr::ParameterSet& p) {
  const double x = p.get("x");
  return p.get("a") * x * x + p.get("b");
};

const expr::ParameterSet kBase{{"a", 2.0}, {"b", 1.0}, {"x", 3.0}};

TEST(Linspace, CoversEndpointsEvenly) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_THROW((void)linspace(0.0, 1.0, 1), std::invalid_argument);
}

TEST(ParametricSweep, OverridesOnlyTheSweptParameter) {
  const ContextModelFunction quadratic =
      [](const expr::ParameterSet& p, ctmc::SolveCache&) {
        return kQuadratic(p);
      };
  const auto points =
      parametric_sweep(quadratic, kBase, "x", {0.0, 1.0, 2.0});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].metric, 1.0);
  EXPECT_DOUBLE_EQ(points[1].metric, 3.0);
  EXPECT_DOUBLE_EQ(points[2].metric, 9.0);
  EXPECT_DOUBLE_EQ(points[2].parameter_value, 2.0);
}

TEST(Uncertainty, ReproducibleFromSeed) {
  const std::vector<stats::ParameterRange> ranges = {{"x", 0.0, 1.0}};
  UncertaintyOptions options;
  options.samples = 50;
  options.seed = 17;
  const auto a = uncertainty_analysis(kQuadratic, kBase, ranges, options);
  const auto b = uncertainty_analysis(kQuadratic, kBase, ranges, options);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics[i], b.metrics[i]);
  }
}

TEST(Uncertainty, MeanOfLinearModelIsMidpointValue) {
  // y = x sampled uniformly on [0, 10]: mean ~ 5.
  const ModelFunction linear = [](const expr::ParameterSet& p) {
    return p.get("x");
  };
  UncertaintyOptions options;
  options.samples = 4000;
  const auto result = uncertainty_analysis(
      linear, kBase, {{"x", 0.0, 10.0}}, options);
  EXPECT_NEAR(result.mean, 5.0, 0.2);
  EXPECT_NEAR(result.interval80.lower, 1.0, 0.2);
  EXPECT_NEAR(result.interval80.upper, 9.0, 0.2);
  EXPECT_NEAR(result.fraction_below(5.0), 0.5, 0.05);
}

TEST(Uncertainty, IntervalsNestAndBracketMean) {
  UncertaintyOptions options;
  options.samples = 500;
  const auto result = uncertainty_analysis(
      kQuadratic, kBase, {{"x", 0.0, 2.0}, {"b", -1.0, 1.0}}, options);
  EXPECT_LE(result.interval90.lower, result.interval80.lower);
  EXPECT_GE(result.interval90.upper, result.interval80.upper);
  EXPECT_GT(result.mean, result.interval80.lower);
  EXPECT_LT(result.mean, result.interval80.upper);
  EXPECT_EQ(result.metrics.size(), 500u);
  EXPECT_EQ(result.draws.size(), 500u * 2);
}

TEST(Uncertainty, LatinHypercubeOptionRuns) {
  UncertaintyOptions options;
  options.samples = 64;
  options.latin_hypercube = true;
  const auto result = uncertainty_analysis(
      kQuadratic, kBase, {{"x", 0.0, 1.0}}, options);
  EXPECT_EQ(result.metrics.size(), 64u);
}

TEST(Uncertainty, RejectsZeroSamples) {
  UncertaintyOptions options;
  options.samples = 0;
  EXPECT_THROW(
      (void)uncertainty_analysis(kQuadratic, kBase, {}, options),
      std::invalid_argument);
}

TEST(Sensitivity, CentralDifferenceMatchesAnalyticDerivative) {
  const auto sens = check::finite_difference_sensitivities(
      kQuadratic, kBase, {"x", "a", "b"});
  ASSERT_EQ(sens.size(), 3u);
  // dy/dx = 2ax = 12; dy/da = x^2 = 9; dy/db = 1.
  EXPECT_NEAR(sens[0].derivative, 12.0, 1e-5);
  EXPECT_NEAR(sens[1].derivative, 9.0, 1e-5);
  EXPECT_NEAR(sens[2].derivative, 1.0, 1e-5);
  // Elasticity of x: (x/y) dy/dx = 3*12/19.
  EXPECT_NEAR(sens[0].elasticity, 36.0 / 19.0, 1e-5);
}

TEST(Tornado, SortsBysSwing) {
  const auto bars = tornado_analysis(
      kQuadratic, kBase, {{"b", 0.0, 1.0}, {"x", 0.0, 4.0}});
  ASSERT_EQ(bars.size(), 2u);
  EXPECT_EQ(bars[0].parameter, "x");  // swing 32 beats swing 1
  EXPECT_DOUBLE_EQ(bars[0].metric_at_lo, 1.0);
  EXPECT_DOUBLE_EQ(bars[0].metric_at_hi, 33.0);
  EXPECT_DOUBLE_EQ(bars[0].swing(), 32.0);
}

TEST(Spearman, DetectsMonotoneAssociation) {
  std::vector<double> xs;
  std::vector<double> ys_up;
  std::vector<double> ys_down;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys_up.push_back(std::exp(0.1 * i));   // monotone increasing
    ys_down.push_back(-i * i);            // monotone decreasing
  }
  EXPECT_NEAR(spearman_rank_correlation(xs, ys_up), 1.0, 1e-12);
  EXPECT_NEAR(spearman_rank_correlation(xs, ys_down), -1.0, 1e-12);
}

TEST(Spearman, TiesAndValidation) {
  EXPECT_NEAR(spearman_rank_correlation({1.0, 1.0, 2.0, 2.0},
                                        {1.0, 1.0, 2.0, 2.0}),
              1.0, 1e-12);
  EXPECT_THROW((void)spearman_rank_correlation({1.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)spearman_rank_correlation({1.0, 2.0}, {1.0}),
               std::invalid_argument);
}

TEST(ParameterImportance, RanksDominantParameterFirst) {
  // y = 100*a + b: a dominates.
  const ModelFunction model = [](const expr::ParameterSet& p) {
    return 100.0 * p.get("a") + p.get("b");
  };
  UncertaintyOptions options;
  options.samples = 400;
  const std::vector<stats::ParameterRange> ranges = {{"a", 0.0, 1.0},
                                                     {"b", 0.0, 1.0}};
  const auto result = uncertainty_analysis(
      model, expr::ParameterSet{}, ranges, options);
  const auto importance = parameter_importance(result, ranges);
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_EQ(importance[0].parameter, "a");
  EXPECT_GT(importance[0].rank_correlation, 0.9);
}

}  // namespace
}  // namespace rascal::analysis
