#include "ctmc/erlang.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.h"
#include "ctmc/builder.h"
#include "ctmc/steady_state.h"
#include "lint/lint.h"
#include "models/hadb_pair.h"
#include "models/params.h"

namespace rascal::ctmc {
namespace {

// Up --lambda--> Recovering --mu--> Up, with a competing second
// failure Recovering --nu--> Down --rho--> Up.
Ctmc recovery_chain(double lambda, double mu, double nu, double rho) {
  CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Recovering", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, lambda).rate(1, 0, mu).rate(1, 2, nu).rate(2, 0, rho);
  return b.build();
}

TEST(Erlang, StageOneIsIdentity) {
  const Ctmc chain = recovery_chain(0.1, 2.0, 0.3, 1.0);
  const Ctmc same = erlangize(chain, 1, 0, 1);
  EXPECT_EQ(same.num_states(), chain.num_states());
  EXPECT_DOUBLE_EQ(same.rate(1, 0), 2.0);
}

TEST(Erlang, ExpandsStatesAndPreservesMeanSojourn) {
  const Ctmc chain = recovery_chain(0.1, 2.0, 0.0 + 0.3, 1.0);
  const Ctmc expanded = erlangize(chain, 1, 0, 4);
  EXPECT_EQ(expanded.num_states(), 3u + 3u);  // 3 extra stages
  // Stage rate is 4*mu along the chain; competing exit on each stage.
  EXPECT_DOUBLE_EQ(expanded.rate(1, expanded.state("Recovering#2")), 8.0);
  EXPECT_DOUBLE_EQ(expanded.rate(expanded.state("Recovering#4"), 0), 8.0);
  EXPECT_DOUBLE_EQ(expanded.rate(expanded.state("Recovering#3"), 2), 0.3);
  EXPECT_FALSE(
      lint::lint_ctmc(expanded).has_code(lint::codes::kNotIrreducible));
}

TEST(Erlang, MeanRecoveryTimeUnchangedWithoutCompetition) {
  // With no competing exit, availability depends only on the mean
  // sojourn, so any k gives the same steady state.
  const Ctmc base = recovery_chain(0.1, 2.0, 1e-300, 1.0);
  // (nu ~ 0 to keep the chain irreducible but negligible.)
  const double a1 = core::solve_availability(base).availability;
  for (std::size_t k : {2, 5, 16}) {
    const Ctmc expanded = erlangize(base, 1, 0, k);
    EXPECT_NEAR(core::solve_availability(expanded).availability, a1,
                1e-9)
        << "k=" << k;
  }
}

TEST(Erlang, ConvergesToDeterministicRaceProbability) {
  // Race between recovery (mean T) and a competing failure Exp(nu).
  // Exponential recovery: P(failure first) = nu/(nu + 1/T).
  // Deterministic recovery: P = 1 - exp(-nu T).
  // Erlang-k interpolates: P_k = 1 - (k/T / (k/T + nu))^k.
  const double T = 0.5;
  const double nu = 1.2;
  const double lambda = 0.01;
  const double rho = 4.0;
  const double deterministic = 1.0 - std::exp(-nu * T);

  double previous_error = 1.0;
  for (std::size_t k : {1, 2, 4, 8, 16, 32}) {
    const Ctmc chain = recovery_chain(lambda, 1.0 / T, nu, rho);
    const Ctmc expanded = erlangize(chain, 1, 0, k);
    // P(failure during recovery) from the embedded chain: frequency
    // into Down divided by frequency into Recovering.
    const auto steady = solve_steady_state(expanded);
    double freq_down = 0.0;
    double freq_recovering = 0.0;
    for (const Transition& t : expanded.transitions()) {
      if (expanded.state_name(t.to) == "Down") {
        freq_down += steady.probability(t.from) * t.rate;
      }
      if (t.to == 1 && t.from == 0) {
        freq_recovering += steady.probability(t.from) * t.rate;
      }
    }
    const double p_failure_first = freq_down / freq_recovering;
    const double dk = static_cast<double>(k);
    const double expected_k =
        1.0 - std::pow((dk / T) / (dk / T + nu), dk);
    EXPECT_NEAR(p_failure_first, expected_k, 1e-10) << "k=" << k;
    const double error = std::abs(p_failure_first - deterministic);
    EXPECT_LE(error, previous_error + 1e-12) << "k=" << k;
    previous_error = error;
  }
  // By k = 32 the deterministic limit is approached within ~1%.
  EXPECT_LT(previous_error, 0.01 * deterministic);
}

TEST(Erlang, HadbPairWithErlangRecoveriesStaysCloseToExponential) {
  // The paper's exponential-recovery assumption: re-solve Figure 3
  // with Erlang-8 recovery completions.  Downtime shifts only
  // mildly — supporting the paper's modeling choice.
  const auto params = models::default_parameters();
  const Ctmc base = models::hadb_pair_model().bind(params);
  const auto ok = base.state("Ok");
  const Ctmc erlang = erlangize_all(
      base,
      {{base.state("RestartShort"), ok},
       {base.state("RestartLong"), ok},
       {base.state("Repair"), ok},
       {base.state("Maintenance"), ok}},
      8);
  const double u_exp = core::solve_availability(base).unavailability;
  const double u_erl = core::solve_availability(erlang).unavailability;
  EXPECT_NEAR(u_erl, u_exp, 0.10 * u_exp);
  EXPECT_NE(u_erl, u_exp);
}

TEST(Erlang, Validation) {
  const Ctmc chain = recovery_chain(0.1, 2.0, 0.3, 1.0);
  EXPECT_THROW((void)erlangize(chain, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)erlangize(chain, 9, 0, 2), std::invalid_argument);
  // No completion edge Up -> Down.
  EXPECT_THROW((void)erlangize(chain, 0, 2, 2), std::invalid_argument);
  EXPECT_THROW(
      (void)erlangize_all(chain, {{1, 0}, {1, 0}}, 2),
      std::invalid_argument);
}

}  // namespace
}  // namespace rascal::ctmc
