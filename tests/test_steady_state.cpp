#include "ctmc/steady_state.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "check/reference_solvers.h"
#include "ctmc/builder.h"

namespace rascal::ctmc {
namespace {

using check::ReferenceSolver;

Ctmc two_state(double lambda, double mu) {
  CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, lambda).rate(1, 0, mu);
  return b.build();
}

// Every steady-state solver: the three production methods and the
// three reference solvers of src/check/ that the oracles check them
// against.
enum class Solver { kGth, kLu, kPower, kGaussSeidel, kGmres, kBiCgStab };

std::optional<ReferenceSolver> reference_of(Solver solver) {
  if (solver == Solver::kLu) return ReferenceSolver::kLu;
  if (solver == Solver::kPower) return ReferenceSolver::kPower;
  if (solver == Solver::kGaussSeidel) return ReferenceSolver::kGaussSeidel;
  return std::nullopt;
}

SteadyStateMethod method_of(Solver solver) {
  if (solver == Solver::kGmres) return SteadyStateMethod::kGmres;
  if (solver == Solver::kBiCgStab) return SteadyStateMethod::kBiCgStab;
  return SteadyStateMethod::kGth;
}

check::ReferenceResult solve(const Ctmc& chain, Solver solver) {
  if (const auto reference = reference_of(solver)) {
    return check::solve_reference(chain, *reference);
  }
  SteadyState s = solve_steady_state(chain, method_of(solver));
  return {std::move(s.probabilities), s.iterations, s.residual, true};
}

class AllMethods : public ::testing::TestWithParam<Solver> {};

TEST_P(AllMethods, TwoStateClosedForm) {
  const double lambda = 0.25;
  const double mu = 4.0;
  const auto s = solve(two_state(lambda, mu), GetParam());
  EXPECT_NEAR(s.pi[0], mu / (lambda + mu), 1e-9);
  EXPECT_NEAR(s.pi[1], lambda / (lambda + mu), 1e-9);
  EXPECT_LT(s.residual, 1e-8);
}

TEST_P(AllMethods, RandomChainSatisfiesBalance) {
  std::mt19937_64 gen(2718);
  std::uniform_real_distribution<double> dist(0.1, 3.0);
  CtmcBuilder b;
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i) {
    b.state("s" + std::to_string(i), i % 3 == 0 ? 0.0 : 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) b.rate(i, j, dist(gen));
    }
  }
  const Ctmc chain = b.build();
  const auto s = solve(chain, GetParam());
  double sum = 0.0;
  for (double p : s.pi) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);
  EXPECT_LT(s.residual, 1e-9);
}

// A production name parses back to its method.  A reference solver's
// name is refused and leaves the output untouched: "lu", "power" and
// "gauss-seidel" are never mapped to another method.
TEST_P(AllMethods, NameRoundTrips) {
  SteadyStateMethod parsed = GetParam() == Solver::kGth
                                 ? SteadyStateMethod::kGmres
                                 : SteadyStateMethod::kGth;
  if (const auto reference = reference_of(GetParam())) {
    EXPECT_FALSE(parse_method(check::to_string(*reference), parsed));
    EXPECT_EQ(parsed, SteadyStateMethod::kGth);
    return;
  }
  ASSERT_TRUE(parse_method(to_string(method_of(GetParam())), parsed));
  EXPECT_EQ(parsed, method_of(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Methods, AllMethods,
                         ::testing::Values(Solver::kGth, Solver::kLu,
                                           Solver::kPower,
                                           Solver::kGaussSeidel,
                                           Solver::kGmres, Solver::kBiCgStab),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Solver::kGth: return "Gth";
                             case Solver::kLu: return "Lu";
                             case Solver::kPower: return "Power";
                             case Solver::kGaussSeidel: return "GaussSeidel";
                             case Solver::kGmres: return "Gmres";
                             case Solver::kBiCgStab: return "BiCgStab";
                           }
                           return "Unknown";
                         });

TEST(SteadyState, MethodsAgreeOnStiffAvailabilityChain) {
  // Rates spanning 8 orders of magnitude, as availability models do.
  CtmcBuilder b;
  b.state("Ok", 1.0);
  b.state("Degraded", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, 1e-4).rate(1, 0, 60.0).rate(1, 2, 2e-4).rate(2, 0, 1.0);
  const Ctmc chain = b.build();
  const SteadyState gth = solve_steady_state(chain, SteadyStateMethod::kGth);
  const check::ReferenceResult lu =
      check::solve_reference(chain, ReferenceSolver::kLu);
  for (std::size_t i = 0; i < 3; ++i) {
    const double scale = std::max(gth.probability(i), 1e-300);
    EXPECT_LT(std::abs(lu.pi[i] - gth.probability(i)) / scale, 1e-6)
        << "state " << i;
  }
}

class StiffRandomChains : public ::testing::TestWithParam<std::size_t> {};

// Random availability-like chains whose rates span 10 orders of
// magnitude: GTH and the LU reference must agree on every state to
// fine relative precision, and probabilities must remain nonnegative.
TEST_P(StiffRandomChains, DirectSolversAgreeToRelativePrecision) {
  const std::size_t n = GetParam();
  std::mt19937_64 gen(n * 6151);
  std::uniform_real_distribution<double> magnitude(-7.0, 3.0);
  CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.state("s" + std::to_string(i), i % 4 == 0 ? 0.0 : 1.0);
  }
  // Ring for irreducibility plus random chords, all with wild rates.
  for (std::size_t i = 0; i < n; ++i) {
    b.rate(i, (i + 1) % n, std::pow(10.0, magnitude(gen)));
    const std::size_t j = gen() % n;
    if (j != i) b.rate(i, j, std::pow(10.0, magnitude(gen)));
  }
  const Ctmc chain = b.build();
  const SteadyState gth = solve_steady_state(chain, SteadyStateMethod::kGth);
  const check::ReferenceResult lu =
      check::solve_reference(chain, ReferenceSolver::kLu);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(gth.probability(i), 0.0);
    const double p = gth.probability(i);
    if (p > 1e-6) {
      // On well-conditioned mass the two direct solvers agree tightly.
      EXPECT_LT(std::abs(lu.pi[i] - p) / p, 1e-6)
          << "state " << i << " p=" << p;
    } else {
      // On the tiny probabilities LU loses relative accuracy to
      // cancellation (GTH's raison d'etre); it must still be close in
      // absolute terms.
      EXPECT_LT(std::abs(lu.pi[i] - p), 1e-9)
          << "state " << i << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StiffRandomChains,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(SteadyState, DirectMethodsRejectReducibleChain) {
  CtmcBuilder b;
  b.state("A", 1.0);
  b.state("Trap", 0.0);
  b.rate(0, 1, 1.0);  // no way back
  const Ctmc chain = b.build();
  EXPECT_THROW((void)solve_steady_state(chain, SteadyStateMethod::kGth),
               std::domain_error);
}

TEST(SteadyState, IterationCountsReported) {
  const SteadyState direct =
      solve_steady_state(two_state(1.0, 1.0), SteadyStateMethod::kGth);
  EXPECT_EQ(direct.iterations, 0u);
  // GMRES starts from the uniform vector, which is already the answer
  // for two_state(1, 1); an asymmetric chain needs iterations.
  const SteadyState iterative =
      solve_steady_state(two_state(0.25, 4.0), SteadyStateMethod::kGmres);
  EXPECT_GT(iterative.iterations, 0u);
}

}  // namespace
}  // namespace rascal::ctmc
