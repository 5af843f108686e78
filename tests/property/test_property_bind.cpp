// Tolerance-zero property tests for the compiled bind: SymbolicCtmc::
// bind must reproduce the reference evaluation (every AST through the
// public Ctmc constructor) bit for bit on seeded random symbolic
// models, on draws that zero a rate or must throw, and on every
// example model file, including when many threads bind one model
// that none of them has compiled yet.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/random_model.h"
#include "core/parallel.h"
#include "ctmc/solve_cache.h"
#include "io/model_file.h"

namespace rascal::check {
namespace {

// Each of a..d scaled by a log-uniform factor in [1/4, 4]; z = 0 a
// quarter of the time, which drops the transitions it scales.
expr::ParameterSet random_draw(const expr::ParameterSet& base,
                               stats::RandomEngine& rng) {
  expr::ParameterSet draw = base;
  for (const char* name : {"a", "b", "c", "d"}) {
    draw.set(name, base.get(name) * std::exp(rng.uniform(-std::log(4.0),
                                                         std::log(4.0))));
  }
  draw.set("z", rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.5, 2.0));
  return draw;
}

TEST(CompiledBind, BitIdenticalOnRandomSymbolicModels) {
  stats::RandomEngine root(0xB1DC0DE);
  std::size_t compiled = 0;
  std::size_t dropped = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedSymbolicModel g = random_symbolic_ctmc(rng);
    for (int d = 0; d < 10; ++d) {
      const expr::ParameterSet draw =
          d == 0 ? g.params : random_draw(g.params, rng);
      const OracleReport report = check_bind_consensus(g.model, draw);
      ASSERT_TRUE(report.ok()) << g.description << " [stream " << i
                               << ", draw " << d << "]\n"
                               << report.summary();
      if (draw.get("z") == 0.0) {
        ++dropped;
      } else if (g.model.bind(draw).steady_state_prevalidated()) {
        ++compiled;
      }
    }
  }
  // Most draws take the compiled path and some take the reference path.
  EXPECT_GT(compiled, 300u);
  EXPECT_GT(dropped, 60u);
}

TEST(CompiledBind, ParallelTransitionsSumInTheConstructorsOrder) {
  // 20 parallel transitions on one pair with rates of very different
  // magnitudes: the merged rate's bits depend on the summation order,
  // which std::sort (introsort above 16 elements) decides.
  ctmc::SymbolicCtmc model;
  model.state("Up", 1.0);
  model.state("Down", 0.0);
  model.rate("Down", "Up", "1");
  for (int k = 0; k < 20; ++k) {
    model.rate("Up", "Down", "a^" + std::to_string(k % 7) + "/3");
    model.rate("Down", "Up", "b/" + std::to_string(k + 1));
  }
  stats::RandomEngine rng(99);
  for (int d = 0; d < 50; ++d) {
    const expr::ParameterSet params{{"a", rng.uniform(0.001, 1000.0)},
                                    {"b", rng.uniform(0.1, 10.0)}};
    const OracleReport report = check_bind_consensus(model, params);
    ASSERT_TRUE(report.ok()) << report.summary();
    ASSERT_TRUE(model.bind(params).steady_state_prevalidated());
  }
}

// One failing draw per way a bind can fail: each must throw the
// reference's exception type and message.
TEST(CompiledBind, FailingDrawsThrowTheReferenceException) {
  ctmc::SymbolicCtmc model;
  model.state("A", 1.0);
  model.state("B", 0.0);
  model.rate("A", "B", "x/y");
  model.rate("B", "A", "log(x)+sqrt(y)+exp(w)");
  const expr::ParameterSet ok{{"x", 2.0}, {"y", 3.0}, {"w", 1.0}};
  const std::vector<std::pair<std::string, expr::ParameterSet>> draws = {
      {"valid", ok},
      {"unbound parameter", {{"x", 2.0}, {"y", 3.0}}},
      {"negative rate", ok.with({{"x", -2.0}, {"y", 1.0}})},
      {"division by zero", ok.with({{"y", 0.0}})},
      {"log of a non-positive value", ok.with({{"x", 0.0}})},
      {"sqrt of a negative value", ok.with({{"y", -1.0}})},
      {"non-finite rate", ok.with({{"w", 1000.0}})},
      {"NaN rate", ok.with({{"x", std::numeric_limits<double>::quiet_NaN()}})},
  };
  for (const auto& [what, params] : draws) {
    const OracleReport report = check_bind_consensus(model, params);
    EXPECT_TRUE(report.ok()) << what << "\n" << report.summary();
  }
  EXPECT_THROW((void)model.bind(draws[1].second), expr::UnknownParameterError);
  EXPECT_THROW((void)model.bind(draws[2].second), std::invalid_argument);
  EXPECT_THROW((void)model.bind(draws[3].second), std::domain_error);
}

TEST(CompiledBind, StructuralVerdictTravelsWithTheChain) {
  // Two closed classes: every solve must still throw the reference's
  // LintError; dropping the bridge by a zero rate leaves one class.
  ctmc::SymbolicCtmc split;
  for (const char* s : {"A", "B", "C", "D"}) split.state(s, 1.0);
  split.rate("A", "B", "x").rate("B", "A", "x");
  split.rate("C", "D", "x").rate("D", "C", "x");
  ctmc::SymbolicCtmc bridged = split;
  bridged.rate("B", "C", "y").rate("C", "B", "y");
  for (const double y : {0.0, 0.5}) {
    const expr::ParameterSet params{{"x", 1.0}, {"y", y}};
    for (const ctmc::SymbolicCtmc* model : {&split, &bridged}) {
      const OracleReport report = check_bind_consensus(*model, params);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
  EXPECT_FALSE(split.bind({{"x", 1.0}}).steady_state_prevalidated());
  EXPECT_TRUE(
      bridged.bind({{"x", 1.0}, {"y", 0.5}}).steady_state_prevalidated());
}

TEST(CompiledBind, ChangingTheModelRecompilesIt) {
  ctmc::SymbolicCtmc model;
  model.state("A", 1.0);
  model.state("B", 0.0);
  model.rate("A", "B", "x");
  model.rate("B", "A", "1");
  const expr::ParameterSet params{{"x", 2.0}, {"y", 5.0}};
  const ctmc::SymbolicCtmc before = model;  // compiles on its own
  (void)model.bind(params);
  model.rate("A", "B", "y");
  EXPECT_EQ(model.bind(params).rate(0, 1), 7.0);
  EXPECT_EQ(before.bind(params).rate(0, 1), 2.0);
  EXPECT_TRUE(check_bind_consensus(model, params).ok());
  EXPECT_TRUE(check_bind_consensus(before, params).ok());
}

// Every shipped example, at its defaults and at draws that scale, zero,
// negate or overflow each parameter, or leave one unbound.
TEST(CompiledBind, BitIdenticalOnEveryExampleModel) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(RASCAL_SOURCE_DIR) + "/examples/models")) {
    if (entry.path().extension() != ".rasc") continue;
    ++files;
    const io::ModelFile file = io::load_model(entry.path().string());
    std::vector<expr::ParameterSet> draws = {file.parameters};
    stats::RandomEngine rng(files);
    for (int d = 0; d < 20; ++d) {
      expr::ParameterSet draw = file.parameters;
      for (const auto& [name, value] : file.parameters) {
        draw.set(name, value * rng.uniform(0.5, 2.0));
      }
      draws.push_back(draw);
    }
    for (const auto& [name, value] : file.parameters) {
      for (const double changed : {0.0, -value, 1e308}) {
        draws.push_back(file.parameters.with({{name, changed}}));
      }
      expr::ParameterSet unbound;
      for (const auto& [other, v] : file.parameters) {
        if (other != name) unbound.set(other, v);
      }
      draws.push_back(unbound);
    }
    for (std::size_t d = 0; d < draws.size(); ++d) {
      const OracleReport report = check_bind_consensus(file.model, draws[d]);
      ASSERT_TRUE(report.ok())
          << entry.path() << " draw " << d << "\n" << report.summary();
    }
  }
  EXPECT_GE(files, 4u);
}

TEST(CompiledBind, ConcurrentBindsShareOneCompiledForm) {
  // The workers race to compile the model on their first bind; every
  // chain must match the reference bound up front.
  stats::RandomEngine rng(0xC0C0);
  const GeneratedSymbolicModel g = random_symbolic_ctmc(rng);
  const ctmc::SymbolicCtmc model = g.model;  // not compiled yet
  std::vector<expr::ParameterSet> draws;
  std::vector<std::uint64_t> reference;
  std::vector<char> has_zero_rate;
  for (int d = 0; d < 64; ++d) {
    draws.push_back(random_draw(g.params, rng));
    reference.push_back(ctmc::SolveCache::generator_digest(
        model.bind_reference(draws.back())));
    bool zero = false;
    for (const auto& t : model.transitions()) {
      zero = zero || t.rate.evaluate(draws.back()) == 0.0;
    }
    has_zero_rate.push_back(zero ? 1 : 0);
  }
  std::vector<std::uint64_t> digests(draws.size());
  std::vector<char> verdicts(draws.size());
  core::parallel_for(draws.size(), 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      const ctmc::Ctmc chain = model.bind(draws[d]);
      digests[d] = ctmc::SolveCache::generator_digest(chain);
      verdicts[d] = chain.steady_state_prevalidated() ? 1 : 0;
    }
  });
  for (std::size_t d = 0; d < draws.size(); ++d) {
    EXPECT_EQ(digests[d], reference[d]) << "draw " << d;
    EXPECT_EQ(verdicts[d], has_zero_rate[d] != 0 ? 0 : 1) << "draw " << d;
  }
}

}  // namespace
}  // namespace rascal::check
