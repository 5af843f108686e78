#include "ctmc/ctmc.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "ctmc/builder.h"
#include "lint/lint.h"

namespace rascal::ctmc {
namespace {

Ctmc simple_chain() {
  CtmcBuilder b;
  const StateId up = b.state("Up", 1.0);
  const StateId down = b.state("Down", 0.0);
  b.rate(up, down, 0.1).rate(down, up, 2.0);
  return b.build();
}

TEST(Ctmc, BasicAccessors) {
  const Ctmc c = simple_chain();
  EXPECT_EQ(c.num_states(), 2u);
  EXPECT_EQ(c.state_name(0), "Up");
  EXPECT_DOUBLE_EQ(c.reward(0), 1.0);
  EXPECT_DOUBLE_EQ(c.reward(1), 0.0);
  EXPECT_EQ(c.state("Down"), 1u);
  EXPECT_FALSE(c.find_state("Nope").has_value());
  EXPECT_THROW((void)c.state("Nope"), std::invalid_argument);
}

TEST(Ctmc, ExitRatesAndRateLookup) {
  const Ctmc c = simple_chain();
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 0.1);
  EXPECT_DOUBLE_EQ(c.exit_rate(1), 2.0);
  EXPECT_DOUBLE_EQ(c.rate(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(c.rate(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(c.rate(0, 0), 0.0);
}

TEST(Ctmc, GeneratorRowsSumToZero) {
  const Ctmc c = simple_chain();
  const linalg::Matrix q = c.generator();
  for (std::size_t r = 0; r < q.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t col = 0; col < q.cols(); ++col) sum += q(r, col);
    EXPECT_NEAR(sum, 0.0, 1e-15);
  }
}

TEST(Ctmc, SparseGeneratorMatchesDense) {
  const Ctmc c = simple_chain();
  const linalg::CsrMatrix sparse = c.sparse_generator();
  const linalg::Matrix dense = c.generator();
  ASSERT_EQ(sparse.rows(), dense.rows());
  ASSERT_EQ(sparse.cols(), dense.cols());
  std::size_t nonzeros = 0;
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t col = 0; col < dense.cols(); ++col) {
      nonzeros += dense(r, col) != 0.0 ? 1 : 0;
    }
    for (std::size_t k = sparse.row_ptr()[r]; k < sparse.row_ptr()[r + 1];
         ++k) {
      EXPECT_EQ(sparse.values()[k], dense(r, sparse.col_idx()[k]));
    }
  }
  EXPECT_EQ(sparse.non_zeros(), nonzeros);
}

TEST(Ctmc, ParallelTransitionsAreMerged) {
  const Ctmc c({{"A", 1.0}, {"B", 0.0}},
               {{0, 1, 0.5}, {0, 1, 0.25}, {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(c.rate(0, 1), 0.75);
  EXPECT_EQ(c.transitions().size(), 2u);
}

TEST(Ctmc, ValidationRejectsBadInput) {
  // Self-loop.
  EXPECT_THROW(Ctmc({{"A", 1.0}}, {{0, 0, 1.0}}), std::invalid_argument);
  // Out-of-range endpoint.
  EXPECT_THROW(Ctmc({{"A", 1.0}}, {{0, 1, 1.0}}), std::invalid_argument);
  // Non-positive rate.
  EXPECT_THROW(Ctmc({{"A", 1.0}, {"B", 1.0}}, {{0, 1, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Ctmc({{"A", 1.0}, {"B", 1.0}}, {{0, 1, -1.0}}),
               std::invalid_argument);
  // Duplicate / empty names.
  EXPECT_THROW(Ctmc({{"A", 1.0}, {"A", 1.0}}, {}), std::invalid_argument);
  EXPECT_THROW(Ctmc({{"", 1.0}}, {}), std::invalid_argument);
  // Empty state set.
  EXPECT_THROW(Ctmc({}, {}), std::invalid_argument);
}

TEST(Ctmc, IrreducibilityDetection) {
  EXPECT_FALSE(
      lint::lint_ctmc(simple_chain()).has_code(lint::codes::kNotIrreducible));
  // One-way chain is reducible.
  const Ctmc oneway({{"A", 1.0}, {"B", 0.0}}, {{0, 1, 1.0}});
  EXPECT_TRUE(lint::lint_ctmc(oneway).has_code(lint::codes::kNotIrreducible));
}

TEST(Ctmc, RewardPartitions) {
  CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Degraded", 0.6);
  b.state("Down", 0.0);
  b.rate(0, 1, 1.0).rate(1, 2, 1.0).rate(2, 0, 1.0);
  const Ctmc c = b.build();
  EXPECT_EQ(c.states_with_reward_below(0.5), (std::vector<StateId>{2}));
  EXPECT_DOUBLE_EQ(c.max_exit_rate(), 1.0);
}

TEST(Builder, ZeroRatesAreDropped) {
  CtmcBuilder b;
  b.state("X", 1.0);
  b.state("Y", 0.0);
  b.rate(0, 1, 0.0).rate(0, 1, 2.0).rate(1, 0, 1.0);
  EXPECT_EQ(b.build().transitions().size(), 2u);
}

TEST(SymbolicCtmc, BindEvaluatesExpressions) {
  ctmc::SymbolicCtmc m;
  m.state("Up", 1.0);
  m.state("Down", 0.0);
  m.rate("Up", "Down", "2*lambda*(1-c)");
  m.rate("Down", "Up", "1/t_repair");
  const expr::ParameterSet params{
      {"lambda", 0.5}, {"c", 0.1}, {"t_repair", 4.0}};
  const Ctmc bound = m.bind(params);
  EXPECT_DOUBLE_EQ(bound.rate(0, 1), 0.9);
  EXPECT_DOUBLE_EQ(bound.rate(1, 0), 0.25);
}

TEST(SymbolicCtmc, CollectsParameters) {
  ctmc::SymbolicCtmc m;
  m.state("A", 1.0);
  m.state("B", 0.0);
  m.rate("A", "B", "x+y");
  m.rate("B", "A", "z");
  EXPECT_EQ(m.parameters(), (std::set<std::string>{"x", "y", "z"}));
}

TEST(SymbolicCtmc, BindRejectsNegativeRates) {
  ctmc::SymbolicCtmc m;
  m.state("A", 1.0);
  m.state("B", 0.0);
  m.rate("A", "B", "x");
  m.rate("B", "A", "1");
  EXPECT_THROW((void)m.bind(expr::ParameterSet{{"x", -1.0}}),
               std::invalid_argument);
}

TEST(SymbolicCtmc, BindDropsExactZeroRates) {
  // FIR = 0 must silently remove the imperfect-recovery edge instead
  // of failing validation.
  ctmc::SymbolicCtmc m;
  m.state("A", 1.0);
  m.state("B", 0.0);
  m.rate("A", "B", "fir");
  m.rate("A", "B", "1");
  m.rate("B", "A", "1");
  const Ctmc bound = m.bind(expr::ParameterSet{{"fir", 0.0}});
  EXPECT_DOUBLE_EQ(bound.rate(0, 1), 1.0);
}

TEST(SymbolicCtmc, BindReportsMissingParameter) {
  ctmc::SymbolicCtmc m;
  m.state("A", 1.0);
  m.state("B", 0.0);
  m.rate("A", "B", "nope");
  m.rate("B", "A", "1");
  EXPECT_THROW((void)m.bind({}), expr::UnknownParameterError);
}

}  // namespace
}  // namespace rascal::ctmc
