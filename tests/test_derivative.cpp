#include <gtest/gtest.h>

#include <cmath>

#include "analysis/exact_sensitivity.h"
#include "check/reference_twins.h"
#include "core/metrics.h"
#include "expr/expression.h"
#include "models/hadb_pair.h"
#include "models/params.h"

namespace rascal {
namespace {

using expr::Expression;
using expr::ParameterSet;

double d(const std::string& source, const std::string& var,
         const ParameterSet& at) {
  return Expression::parse(source).derivative(var).evaluate(at);
}

const ParameterSet kPoint{{"x", 3.0}, {"y", 2.0}, {"z", 0.5}};

TEST(Derivative, PolynomialRules) {
  EXPECT_DOUBLE_EQ(d("5", "x", kPoint), 0.0);
  EXPECT_DOUBLE_EQ(d("x", "x", kPoint), 1.0);
  EXPECT_DOUBLE_EQ(d("y", "x", kPoint), 0.0);
  EXPECT_DOUBLE_EQ(d("x+y", "x", kPoint), 1.0);
  EXPECT_DOUBLE_EQ(d("x*y", "x", kPoint), 2.0);
  EXPECT_DOUBLE_EQ(d("x*x", "x", kPoint), 6.0);
  EXPECT_DOUBLE_EQ(d("x^2", "x", kPoint), 6.0);
  EXPECT_DOUBLE_EQ(d("x^3 - 2*x", "x", kPoint), 27.0 - 2.0);
  EXPECT_DOUBLE_EQ(d("-x", "x", kPoint), -1.0);
}

TEST(Derivative, QuotientRule) {
  // d/dx (x / (x + y)) = y / (x + y)^2.
  EXPECT_NEAR(d("x/(x+y)", "x", kPoint), 2.0 / 25.0, 1e-14);
  EXPECT_NEAR(d("1/x", "x", kPoint), -1.0 / 9.0, 1e-14);
}

TEST(Derivative, TranscendentalsAndChainRule) {
  EXPECT_NEAR(d("exp(2*x)", "x", kPoint), 2.0 * std::exp(6.0), 1e-9);
  EXPECT_NEAR(d("log(x)", "x", kPoint), 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(d("sqrt(x)", "x", kPoint), 0.5 / std::sqrt(3.0), 1e-14);
  EXPECT_NEAR(d("pow(x, 2)", "x", kPoint), 6.0, 1e-12);
  // Variable exponent: d/dx z^x = z^x ln z.
  EXPECT_NEAR(d("z^x", "x", kPoint),
              std::pow(0.5, 3.0) * std::log(0.5), 1e-14);
}

TEST(Derivative, NonDifferentiableFunctionsThrow) {
  EXPECT_THROW((void)Expression::parse("abs(x)").derivative("x"),
               std::domain_error);
  EXPECT_THROW((void)Expression::parse("min(x, 1)").derivative("x"),
               std::domain_error);
  // ...but are fine when independent of the variable.
  EXPECT_DOUBLE_EQ(d("abs(y)*x", "x", kPoint), 2.0);
}

TEST(Derivative, PaperRateExpression) {
  // d/dFIR [2*La*(1-FIR)] = -2*La.
  const ParameterSet p{{"La", 4.0 / 8760.0}, {"FIR", 0.001}};
  EXPECT_NEAR(d("2*La*(1-FIR)", "FIR", p), -8.0 / 8760.0, 1e-15);
}

class DerivativeMatchesFiniteDifference
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DerivativeMatchesFiniteDifference, OnRandomishPoint) {
  const std::string source = GetParam();
  const Expression e = Expression::parse(source);
  const double exact = e.derivative("x").evaluate(kPoint);
  const double h = 1e-6;
  ParameterSet lo = kPoint;
  ParameterSet hi = kPoint;
  lo.set("x", 3.0 - h);
  hi.set("x", 3.0 + h);
  const double numeric = (e.evaluate(hi) - e.evaluate(lo)) / (2.0 * h);
  EXPECT_NEAR(exact, numeric, 1e-5 * std::max(1.0, std::abs(exact)))
      << source;
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, DerivativeMatchesFiniteDifference,
    ::testing::Values("x^2*y + z", "exp(x*z)/x", "log(x+y)*sqrt(x)",
                      "(x+1)/(x^2+y)", "2*x^0.5", "pow(x, y)",
                      "x*y*z - x/y + 4"));

// ---- exact steady-state sensitivities ----------------------------------

TEST(ExactSensitivity, TwoStateClosedForm) {
  // A = mu/(lambda+mu): dA/dlambda = -mu/(lambda+mu)^2,
  // dA/dmu = lambda/(lambda+mu)^2.
  ctmc::SymbolicCtmc m;
  m.state("Up", 1.0);
  m.state("Down", 0.0);
  m.rate("Up", "Down", "lambda");
  m.rate("Down", "Up", "mu");
  const ParameterSet p{{"lambda", 0.3}, {"mu", 2.2}};
  const double s = 0.3 + 2.2;

  const auto d_lambda =
      analysis::steady_state_sensitivity(m, p, "lambda");
  EXPECT_NEAR(d_lambda.d_availability, -2.2 / (s * s), 1e-13);
  const auto d_mu = analysis::steady_state_sensitivity(m, p, "mu");
  EXPECT_NEAR(d_mu.d_availability, 0.3 / (s * s), 1e-13);
  // d_pi sums to zero (probability is conserved).
  double sum = 0.0;
  for (double v : d_lambda.d_pi) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-14);
}

TEST(ExactSensitivity, MatchesFiniteDifferencesOnHadbPair) {
  const auto model = models::hadb_pair_model();
  const auto params = models::default_parameters();
  for (const char* parameter :
       {"hadb_La_hadb", "hadb_La_hw", "hadb_FIR", "hadb_Trestore",
        "Acc"}) {
    const auto exact =
        analysis::steady_state_sensitivity(model, params, parameter);
    const auto numeric = check::finite_difference_sensitivities(
        [&model](const expr::ParameterSet& p) {
          return core::solve_availability(model.bind(p)).availability;
        },
        params, {parameter}, 1e-5);
    const double scale = std::max(std::abs(exact.d_availability), 1e-12);
    EXPECT_NEAR(exact.d_availability, numeric[0].derivative, 1e-3 * scale)
        << parameter;
  }
}

TEST(ExactSensitivity, HandlesRatesDroppedAtZero) {
  // At FIR = 0 the Ok->2_Down edge vanishes from the bound chain, but
  // the derivative with respect to FIR must still see it.
  const auto model = models::hadb_pair_model();
  auto params = models::default_parameters();
  params.set("hadb_FIR", 0.0);
  const auto exact =
      analysis::steady_state_sensitivity(model, params, "hadb_FIR");
  EXPECT_LT(exact.d_availability, 0.0);  // more FIR, less availability
  EXPECT_GT(exact.d_downtime_minutes, 0.0);
}

TEST(ExactSensitivity, DowntimeDerivativeIsScaledAvailability) {
  const auto model = models::hadb_pair_model();
  const auto params = models::default_parameters();
  const auto s =
      analysis::steady_state_sensitivity(model, params, "hadb_La_hw");
  EXPECT_NEAR(s.d_downtime_minutes, -s.d_availability * 525600.0, 1e-6);
}

}  // namespace
}  // namespace rascal
