// Unit tests for the model linter: every live diagnostic code on a
// minimal broken model, the rendering paths (text + JSON), the
// diagnostics-carrying LintError, and the clean bill of health for
// every paper model in src/models.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/hadb_pair_explicit.h"
#include "ctmc/absorption.h"
#include "ctmc/builder.h"
#include "ctmc/steady_state.h"
#include "ctmc/transient.h"
#include "ctmc/validate.h"
#include "io/model_file.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "models/hadb_spares.h"
#include "models/kofn_as.h"
#include "models/params.h"
#include "models/single_instance.h"
#include "models/upgrade.h"
#include "report/diagnostics.h"

namespace rascal::lint {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ctmc::Ctmc two_state(double lambda = 1.0, double mu = 2.0) {
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, lambda).rate(1, 0, mu);
  return b.build();
}

// ---------------------------------------------------------------- structure

TEST(LintCtmc, R010R011R014OnUnreachableTail) {
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.state("Orphan", 1.0);
  b.rate(0, 1, 1.0).rate(1, 0, 2.0).rate(2, 0, 1.0);
  const LintReport report = lint_ctmc(b.build());
  EXPECT_TRUE(report.has_code(codes::kNotIrreducible));
  EXPECT_TRUE(report.has_code(codes::kUnreachableState));
  EXPECT_TRUE(report.has_code(codes::kDeadTransition));
}

TEST(LintCtmc, R012AbsorbingState) {
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Trap", 0.0);
  b.rate(0, 1, 1.0);  // no way back
  const LintReport report = lint_ctmc(b.build());
  EXPECT_TRUE(report.has_code(codes::kAbsorbingState));
  EXPECT_TRUE(report.has_code(codes::kNotIrreducible));
}

TEST(LintCtmc, R013ClosedClass) {
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("IslandA", 0.0);
  b.state("IslandB", 0.0);
  b.rate(0, 1, 1.0).rate(1, 2, 1.0).rate(2, 1, 1.0);
  const LintReport report = lint_ctmc(b.build());
  EXPECT_TRUE(report.has_code(codes::kAbsorbingClass));
}

TEST(LintCtmc, CleanChainLintsClean) {
  const LintReport report = lint_ctmc(two_state());
  EXPECT_TRUE(report.empty()) << report::render_diagnostics_text(report);
}

// ---------------------------------------------------------------- numerics

TEST(LintCtmc, R030StiffChainWarning) {
  const LintReport report = lint_ctmc(two_state(1e-8, 1e4));
  EXPECT_TRUE(report.has_code(codes::kStiffChain));
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCtmc, R031NearZeroRateWarning) {
  ctmc::CtmcBuilder b;
  b.state("a", 1.0);
  b.state("b", 0.0);
  b.state("c", 0.0);
  b.rate(0, 1, 1e-20).rate(1, 0, 1.0).rate(0, 2, 1.0).rate(2, 0, 1.0);
  const LintReport report = lint_ctmc(b.build());
  EXPECT_TRUE(report.has_code(codes::kNearZeroRate));
}

TEST(LintCtmc, StiffnessThresholdIsConfigurable) {
  LintOptions options;
  options.stiffness_warn_ratio = 1e3;
  EXPECT_TRUE(lint_ctmc(two_state(1.0, 1e4), options)
                  .has_code(codes::kStiffChain));
  EXPECT_TRUE(lint_ctmc(two_state(1.0, 1e4)).empty());
}

// ---------------------------------------------------------------- symbolic

TEST(LintSymbolic, R020UndefinedParameter) {
  ctmc::SymbolicCtmc model;
  (void)model.state("Up", 1.0);
  (void)model.state("Down", 0.0);
  model.rate("Up", "Down", "La_missing").rate("Down", "Up", "60");
  const LintReport report = lint_symbolic(model, expr::ParameterSet{});
  EXPECT_TRUE(report.has_code(codes::kUndefinedParameter));
}

TEST(LintSymbolic, R021UnusedParameterOnlyWhenEnabled) {
  ctmc::SymbolicCtmc model;
  (void)model.state("Up", 1.0);
  (void)model.state("Down", 0.0);
  model.rate("Up", "Down", "La").rate("Down", "Up", "Mu");
  expr::ParameterSet params;
  params.set("La", 0.1).set("Mu", 2.0).set("Zombie", 42.0);
  EXPECT_TRUE(lint_symbolic(model, params).empty());
  LintOptions options;
  options.warn_unused_parameters = true;
  const LintReport report = lint_symbolic(model, params, options);
  EXPECT_TRUE(report.has_code(codes::kUnusedParameter));
  EXPECT_FALSE(report.has_errors());
}

TEST(LintSymbolic, R022GuaranteedDivisionByZero) {
  ctmc::SymbolicCtmc model;
  (void)model.state("Up", 1.0);
  (void)model.state("Down", 0.0);
  model.rate("Up", "Down", "1/T").rate("Down", "Up", "60");
  expr::ParameterSet params;
  params.set("T", 0.0);
  const LintReport report = lint_symbolic(model, params);
  EXPECT_TRUE(report.has_code(codes::kDivisionByZero));
}

TEST(LintSymbolic, R003SelfLoopIsAnErrorAndLintModelDoesNotThrow) {
  // The Ctmc constructor rejects a self-loop, so lint_model must stop
  // at the symbolic pass instead of binding the model.
  ctmc::SymbolicCtmc model;
  (void)model.state("Up", 1.0);
  (void)model.state("Down", 0.0);
  model.rate("Up", "Up", "La").rate("Up", "Down", "La").rate("Down", "Up",
                                                              "Mu");
  expr::ParameterSet params;
  params.set("La", 0.1).set("Mu", 2.0);
  const LintReport symbolic = lint_symbolic(model, params);
  EXPECT_TRUE(symbolic.has_code(codes::kSelfLoop));
  EXPECT_EQ(symbolic.count(Severity::kError), 1u);
  LintReport report;
  ASSERT_NO_THROW(report = lint_model(model, params));
  ASSERT_EQ(report.size(), 1u) << report::render_diagnostics_text(report);
  const Diagnostic& d = *report.begin();
  EXPECT_EQ(d.code, codes::kSelfLoop);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.from, "Up");
  EXPECT_EQ(d.location.to, "Up");
}

TEST(LintSymbolic, R008NonFiniteReward) {
  ctmc::SymbolicCtmc model;
  (void)model.state("Up", kInf);
  (void)model.state("Down", 0.0);
  model.rate("Up", "Down", "1").rate("Down", "Up", "2");
  const LintReport report = lint_symbolic(model, expr::ParameterSet{});
  EXPECT_TRUE(report.has_code(codes::kNonFiniteReward));
  EXPECT_TRUE(report.has_errors());
}

TEST(LintSymbolic, R024ZeroRateWarningAndR025NegativeRate) {
  ctmc::SymbolicCtmc model;
  (void)model.state("Up", 1.0);
  (void)model.state("Down", 0.0);
  model.rate("Up", "Down", "La").rate("Down", "Up", "Mu");
  expr::ParameterSet params;
  params.set("La", 0.0).set("Mu", -3.0);
  const LintReport report = lint_symbolic(model, params);
  EXPECT_TRUE(report.has_code(codes::kZeroRate));
  EXPECT_TRUE(report.has_code(codes::kNegativeRateExpr));
  EXPECT_EQ(report.count(Severity::kError), 1u);    // only the negative
  EXPECT_EQ(report.count(Severity::kWarning), 1u);  // only the zero
}

// ---------------------------------------------------------------- ranges

TEST(LintRanges, R023BadAndDegenerateBounds) {
  expr::ParameterSet params;
  params.set("La", 1.0);
  const LintReport report = lint_ranges(
      {{"La", 2.0, 1.0}, {"La", 1.0, 1.0}, {"La", 0.0, kInf}, {"", 0.0, 1.0}},
      params);
  EXPECT_TRUE(report.has_code(codes::kBadRange));
  EXPECT_GE(report.count(Severity::kError), 3u);   // inverted, inf, unnamed
  EXPECT_GE(report.count(Severity::kWarning), 1u);  // degenerate
}

TEST(LintRanges, R020UnboundRangeParameterIsAWarning) {
  const LintReport report =
      lint_ranges({{"Ghost", 0.0, 1.0}}, expr::ParameterSet{});
  EXPECT_TRUE(report.has_code(codes::kUndefinedParameter));
  EXPECT_FALSE(report.has_errors());
}

// -------------------------------------------------------------- fail-fast

TEST(FailFast, SteadyStateThrowsLintErrorWithTwoClosedClasses) {
  ctmc::CtmcBuilder two_islands;
  two_islands.state("a1", 1.0);
  two_islands.state("a2", 0.0);
  two_islands.state("b1", 1.0);
  two_islands.state("b2", 0.0);
  two_islands.rate(0, 1, 1.0).rate(1, 0, 1.0);
  two_islands.rate(2, 3, 1.0).rate(3, 2, 1.0);
  try {
    (void)ctmc::solve_steady_state(two_islands.build());
    FAIL() << "expected lint::LintError";
  } catch (const LintError& e) {
    EXPECT_TRUE(e.report().has_code(codes::kNotIrreducible));
    EXPECT_TRUE(e.report().has_code(codes::kAbsorbingClass));
    EXPECT_GE(e.report().count(Severity::kError), 3u);  // R010 + 2x R013
  }
}

TEST(FailFast, SteadyStateToleratesTransientStates) {
  // Unreachable states with an escape path get probability zero; the
  // solve stays well-posed and must not be rejected.
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.state("Ghost", 1.0);
  b.rate(0, 1, 1.0).rate(1, 0, 2.0).rate(2, 0, 5.0);
  const auto steady = ctmc::solve_steady_state(b.build());
  EXPECT_DOUBLE_EQ(steady.probability(2), 0.0);
}

TEST(FailFast, AbsorptionReportsEveryUnreachableSource) {
  ctmc::CtmcBuilder b;
  b.state("a", 1.0);
  b.state("target", 0.0);
  b.state("island1", 1.0);
  b.state("island2", 1.0);
  b.rate(0, 1, 1.0).rate(1, 0, 1.0);
  b.rate(2, 3, 1.0).rate(3, 2, 1.0);
  const ctmc::Ctmc chain = b.build();
  try {
    (void)ctmc::mean_time_to_absorption(chain, {1});
    FAIL() << "expected lint::LintError";
  } catch (const LintError& e) {
    EXPECT_EQ(e.report().count(Severity::kError), 2u);  // both islands
    EXPECT_TRUE(e.report().has_code(codes::kTargetUnreachable));
  }
}

TEST(FailFast, TransientRejectsInfeasibleHorizonWithR032) {
  ctmc::TransientOptions options;
  options.max_terms = 100;
  try {
    (void)ctmc::transient_distribution(two_state(1e6, 1e6),
                                       linalg::Vector{1.0, 0.0}, 1e6,
                                       options);
    FAIL() << "expected lint::LintError";
  } catch (const LintError& e) {
    EXPECT_TRUE(e.report().has_code(codes::kHorizonInfeasible));
  }
}

TEST(FailFast, LintErrorIsADomainErrorAndNothrowCopyable) {
  static_assert(std::is_base_of_v<std::domain_error, LintError>);
  static_assert(std::is_nothrow_copy_constructible_v<LintError>);
  LintReport report;
  Diagnostic d;
  d.code = codes::kNotIrreducible;
  d.severity = Severity::kError;
  d.message = "broken";
  report.add(d);
  const LintError error(report);
  EXPECT_NE(std::string(error.what()).find("R010"), std::string::npos);
  EXPECT_EQ(error.report().size(), 1u);
}

// ------------------------------------------------------------- model files

TEST(LintModelFile, DiagnosticsCarryLineAndColumn) {
  const io::ModelFile file = io::parse_model_text(
      "param Mu 60\n"
      "param Zombie 1\n"
      "state Up reward 1\n"
      "state Down reward 0\n"
      "rate Up Down La_missing\n"
      "rate Down Up Mu\n");
  const LintReport report = io::lint_model_file(file);
  ASSERT_TRUE(report.has_code(codes::kUndefinedParameter));
  ASSERT_TRUE(report.has_code(codes::kUnusedParameter));
  for (const Diagnostic& d : report) {
    if (d.code == codes::kUndefinedParameter) {
      EXPECT_EQ(d.location.line, 5u);
      EXPECT_EQ(d.location.column, 6u);  // the 'Up' token
    }
    if (d.code == codes::kUnusedParameter) {
      EXPECT_EQ(d.location.line, 2u);
      EXPECT_EQ(d.location.column, 7u);  // the 'Zombie' token
    }
  }
}

TEST(LintModelFile, ParamsUsedByOtherParamsAreNotUnused) {
  // La_as/La_os only appear inside another param's value, which is
  // evaluated eagerly at parse time; R021 must not flag them.
  const io::ModelFile file = io::parse_model_text(
      "param La_as 1/8760\n"
      "param La_os 2/8760\n"
      "param La La_as+La_os\n"
      "state Up reward 1\n"
      "state Down reward 0\n"
      "rate Up Down La\n"
      "rate Down Up 60\n");
  const LintReport report = io::lint_model_file(file);
  EXPECT_TRUE(report.empty()) << report::render_diagnostics_text(report);
}

TEST(LintModelFile, LoadModelFailsFastOnErrors) {
  // Written through a temp file because load_model wants a path.  The
  // name is this case's own, so parallel ctest processes never share it.
  const std::string path =
      ::testing::TempDir() + "/LoadModelFailsFastOnErrors.rasc";
  {
    std::ofstream out(path);
    out << "state Up reward 1\nstate Down reward 0\n"
           "rate Up Down La_missing\nrate Down Up 60\n";
  }
  EXPECT_THROW((void)io::load_model(path), LintError);
  EXPECT_NO_THROW((void)io::load_model(path, io::LintOnLoad::kOff));
  std::remove(path.c_str());
}

TEST(LintModelFile, ParseErrorsReportLineAndColumn) {
  try {
    (void)io::parse_model_text("state Up reward 1\nbogus directive\n");
    FAIL() << "expected ModelFileError";
  } catch (const io::ModelFileError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 1u);
    EXPECT_EQ(e.message(), "unknown directive 'bogus'");
  }
}

// ------------------------------------------------------------- paper models

TEST(LintPaperModels, AllSevenPaperModelsLintClean) {
  const expr::ParameterSet params = models::default_parameters();
  const std::vector<std::pair<std::string, ctmc::Ctmc>> chains = {
      {"single_instance", models::single_instance_model().bind(params)},
      {"app_server_2inst",
       models::app_server_two_instance_model().bind(params)},
      {"app_server_4inst",
       models::app_server_n_instance_model(4).bind(params)},
      {"hadb_pair", models::hadb_pair_model().bind(params)},
      {"hadb_pair_explicit", check::hadb_pair_explicit_model(params)},
      {"kofn_as_4of6", models::kofn_as_model({})},
      {"upgrade",
       models::dual_cluster_upgrade_model().bind(
           models::upgrade_parameters_for(params, 2, 2, 12.0, 2.0,
                                          30.0 / 3600.0))},
  };
  for (const auto& [name, chain] : chains) {
    const LintReport report = lint_ctmc(chain);
    EXPECT_TRUE(report.empty())
        << name << ":\n" << report::render_diagnostics_text(report);
  }
}

TEST(LintPaperModels, SparesModelLintsClean) {
  expr::ParameterSet params = models::default_parameters();
  params.set(models::kTreplenishParam, 24.0);
  const LintReport report =
      lint_ctmc(models::hadb_pair_with_spares_model(2, params));
  EXPECT_TRUE(report.empty()) << report::render_diagnostics_text(report);
}

TEST(LintPaperModels, SymbolicPaperModelsLintCleanViaLintModel) {
  const expr::ParameterSet params = models::default_parameters();
  for (const auto& model :
       {models::hadb_pair_model(), models::single_instance_model(),
        models::app_server_two_instance_model()}) {
    const LintReport report = lint_model(model, params);
    EXPECT_TRUE(report.empty())
        << report::render_diagnostics_text(report);
  }
}

// --------------------------------------------------------------- rendering

TEST(Rendering, TextFormatShowsLocationCodeAndHint) {
  LintReport report;
  Diagnostic d;
  d.code = codes::kNegativeRateExpr;
  d.severity = Severity::kError;
  d.message = "rate is negative";
  d.location.file = "m.rasc";
  d.location.line = 12;
  d.location.column = 8;
  d.location.from = "Ok";
  d.location.to = "Down";
  d.fix_hint = "flip the sign";
  report.add(d);
  const std::string text = report::render_diagnostics_text(report);
  EXPECT_NE(text.find("m.rasc:12:8"), std::string::npos) << text;
  EXPECT_NE(text.find("error [R025] rate is negative"), std::string::npos);
  EXPECT_NE(text.find("hint: flip the sign"), std::string::npos);
  EXPECT_NE(text.find("1 error, 0 warnings, 0 notes"), std::string::npos);
}

TEST(Rendering, JsonFormatIsDeterministicAndEscaped) {
  LintReport report;
  Diagnostic d;
  d.code = codes::kAbsorbingState;
  d.severity = Severity::kWarning;
  d.message = "name has a \"quote\" and a\nnewline";
  d.location.state = "s0";
  report.add(d);
  const std::string json = report::render_diagnostics_json(report);
  EXPECT_NE(json.find("\"code\": \"R012\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // single line + newline
}

TEST(Rendering, EmptyReportRendersZeroTallies) {
  const LintReport report;
  EXPECT_EQ(report::render_diagnostics_text(report),
            "0 errors, 0 warnings, 0 notes\n");
  EXPECT_NE(report::render_diagnostics_json(report).find("\"errors\": 0"),
            std::string::npos);
}

}  // namespace
}  // namespace rascal::lint
