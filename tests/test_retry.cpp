// Unit tests for the resil retry layer and the serve supervision
// discipline built on top of it: error taxonomy, attempt-indexed
// budget escalation, fallback-ladder construction, and the
// bit-identity of supervised solves that recover from transient
// faults.
#include "resil/retry.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "ctmc/builder.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "io/model_file.h"
#include "linalg/precond.h"
#include "serve/supervise.h"

namespace rascal {
namespace {

// ---------------------------------------------------------------- taxonomy

TEST(ErrorTaxonomy, OnlyEnvironmentalAndConvergenceClassesRetry) {
  using resil::ErrorClass;
  EXPECT_TRUE(resil::retryable(ErrorClass::kTransient));
  EXPECT_TRUE(resil::retryable(ErrorClass::kNonConvergence));
  EXPECT_TRUE(resil::retryable(ErrorClass::kPrecond));
  EXPECT_FALSE(resil::retryable(ErrorClass::kParse));
  EXPECT_FALSE(resil::retryable(ErrorClass::kModel));
  EXPECT_FALSE(resil::retryable(ErrorClass::kAdmission));
  EXPECT_FALSE(resil::retryable(ErrorClass::kCancelled));
  EXPECT_FALSE(resil::retryable(ErrorClass::kSinkWrite));
  EXPECT_FALSE(resil::retryable(ErrorClass::kCheckpointWrite));
  EXPECT_FALSE(resil::retryable(ErrorClass::kInternal));
}

TEST(ErrorTaxonomy, SlugsAreStableIdentifiers) {
  using resil::ErrorClass;
  EXPECT_STREQ(resil::to_string(ErrorClass::kTransient), "transient");
  EXPECT_STREQ(resil::to_string(ErrorClass::kNonConvergence),
               "nonconvergence");
  EXPECT_STREQ(resil::to_string(ErrorClass::kParse), "parse");
  EXPECT_STREQ(resil::to_string(ErrorClass::kAdmission), "admission");
  EXPECT_STREQ(resil::to_string(ErrorClass::kInternal), "internal");
}

TEST(ErrorTaxonomy, ClassifyReadsTheTagInterfaceFirst) {
  const resil::TransientError transient("flaky");
  EXPECT_EQ(resil::classify(transient), resil::ErrorClass::kTransient);
  const resil::AdmissionError shed("too big");
  EXPECT_EQ(resil::classify(shed), resil::ErrorClass::kAdmission);
  const linalg::PrecondError precond("P001", "pattern rejected");
  EXPECT_EQ(resil::classify(precond), resil::ErrorClass::kPrecond);
  const ctmc::NonConvergenceError nc("stalled");
  EXPECT_EQ(resil::classify(nc), resil::ErrorClass::kNonConvergence);
}

TEST(ErrorTaxonomy, ClassifyFallsBackByExceptionType) {
  EXPECT_EQ(resil::classify(std::domain_error("bad chain")),
            resil::ErrorClass::kModel);
  EXPECT_EQ(resil::classify(std::invalid_argument("bad arg")),
            resil::ErrorClass::kModel);
  EXPECT_EQ(resil::classify(std::runtime_error("anything else")),
            resil::ErrorClass::kInternal);
}

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, AttemptBudgetDoublesPerEscalation) {
  const resil::RetryPolicy policy{/*max_attempts=*/4,
                                  /*base_iterations=*/100};
  EXPECT_EQ(policy.iterations_for_attempt(0), 100u);
  EXPECT_EQ(policy.iterations_for_attempt(1), 200u);
  EXPECT_EQ(policy.iterations_for_attempt(2), 400u);
}

TEST(RetryPolicy, ZeroBudgetMeansUnlimitedAtEveryAttempt) {
  const resil::RetryPolicy policy{/*max_attempts=*/3, /*base_iterations=*/0};
  EXPECT_EQ(policy.iterations_for_attempt(0), 0u);
  EXPECT_EQ(policy.iterations_for_attempt(5), 0u);
}

TEST(RetryPolicy, EscalationSaturatesInsteadOfOverflowing) {
  const resil::RetryPolicy policy{
      /*max_attempts=*/2,
      /*base_iterations=*/std::numeric_limits<std::size_t>::max() / 2 + 1};
  EXPECT_EQ(policy.iterations_for_attempt(1),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(policy.iterations_for_attempt(63),
            std::numeric_limits<std::size_t>::max());
}

TEST(RetryPolicy, AllowsAnotherCountsTheFirstTry) {
  const resil::RetryPolicy policy{/*max_attempts=*/3, /*base_iterations=*/0};
  EXPECT_TRUE(policy.allows_another(0));   // after the 1st attempt
  EXPECT_TRUE(policy.allows_another(1));   // after the 2nd
  EXPECT_FALSE(policy.allows_another(2));  // 3 attempts consumed
}

// ---------------------------------------------------------- fallback ladder

TEST(FallbackLadder, DenseDescentSubstitutesMethodsEndingOnGth) {
  const auto rungs =
      serve::fallback_ladder(ctmc::SteadyStateMethod::kGmres,
                             linalg::PrecondKind::kIlu0, /*num_states=*/10,
                             /*sparse_threshold=*/0);
  ASSERT_EQ(rungs.size(), 3u);
  EXPECT_EQ(rungs[0].method, ctmc::SteadyStateMethod::kGmres);
  EXPECT_EQ(rungs[1].method, ctmc::SteadyStateMethod::kBiCgStab);
  EXPECT_EQ(rungs[2].method, ctmc::SteadyStateMethod::kGth);
  for (const serve::LadderRung& rung : rungs) {
    EXPECT_EQ(rung.precond, linalg::PrecondKind::kIlu0);
  }
}

TEST(FallbackLadder, DenseDescentSkipsTheRequestedMethod) {
  const auto rungs =
      serve::fallback_ladder(ctmc::SteadyStateMethod::kGth,
                             linalg::PrecondKind::kIlu0, /*num_states=*/10,
                             /*sparse_threshold=*/0);
  ASSERT_EQ(rungs.size(), 3u);
  EXPECT_EQ(rungs[0].method, ctmc::SteadyStateMethod::kGth);
  EXPECT_EQ(rungs[1].method, ctmc::SteadyStateMethod::kGmres);
  EXPECT_EQ(rungs[2].method, ctmc::SteadyStateMethod::kBiCgStab);
}

TEST(FallbackLadder, SparseDescentDowngradesPrecondThenSwitchesMethod) {
  const auto rungs = serve::fallback_ladder(
      ctmc::SteadyStateMethod::kGmres, linalg::PrecondKind::kIlu0,
      /*num_states=*/100, /*sparse_threshold=*/50);
  ASSERT_EQ(rungs.size(), 4u);
  EXPECT_EQ(rungs[0].precond, linalg::PrecondKind::kIlu0);
  EXPECT_EQ(rungs[1].precond, linalg::PrecondKind::kJacobi);
  EXPECT_EQ(rungs[2].precond, linalg::PrecondKind::kNone);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rungs[i].method, ctmc::SteadyStateMethod::kGmres);
  }
  EXPECT_EQ(rungs[3].method, ctmc::SteadyStateMethod::kBiCgStab);
  EXPECT_EQ(rungs[3].precond, linalg::PrecondKind::kNone);
}

TEST(FallbackLadder, SparseDescentNeverDensifies) {
  for (const auto method : {ctmc::SteadyStateMethod::kGth,
                            ctmc::SteadyStateMethod::kGmres,
                            ctmc::SteadyStateMethod::kBiCgStab}) {
    const auto rungs = serve::fallback_ladder(
        method, linalg::PrecondKind::kJacobi, /*num_states=*/1u << 20,
        /*sparse_threshold=*/0);
    for (std::size_t i = 1; i < rungs.size(); ++i) {
      EXPECT_TRUE(rungs[i].method == ctmc::SteadyStateMethod::kGmres ||
                  rungs[i].method == ctmc::SteadyStateMethod::kBiCgStab)
          << "rung " << i << " densified";
    }
  }
}

// --------------------------------------------------------- supervised solve

ctmc::Ctmc repair_pair() {
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, 0.02).rate(1, 0, 1.5);
  return b.build();
}

TEST(SupervisedSolve, TransientFaultsRecoverBitIdentically) {
  const ctmc::Ctmc chain = repair_pair();
  const ctmc::SteadyState direct =
      ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGmres);

  serve::SolveSpec spec;
  spec.method = ctmc::SteadyStateMethod::kGmres;
  serve::SupervisionOptions options;
  options.retry.max_attempts = 3;
  options.inject_transient_faults = 2;

  ctmc::SolveCache cache;
  const serve::SupervisedSolve solved =
      serve::supervised_solve(chain, spec, cache, options);
  EXPECT_EQ(solved.attempts, 3u);
  EXPECT_EQ(solved.rung, 0u);
  EXPECT_TRUE(solved.fallback.empty());
  ASSERT_EQ(solved.steady.probabilities.size(), direct.probabilities.size());
  for (std::size_t s = 0; s < direct.probabilities.size(); ++s) {
    EXPECT_EQ(solved.steady.probabilities[s], direct.probabilities[s]);
  }
}

TEST(SupervisedSolve, ExhaustedBudgetThrowsTheTransient) {
  const ctmc::Ctmc chain = repair_pair();
  serve::SolveSpec spec;
  serve::SupervisionOptions options;
  options.retry.max_attempts = 2;
  options.inject_transient_faults = 2;
  ctmc::SolveCache cache;
  EXPECT_THROW((void)serve::supervised_solve(chain, spec, cache, options),
               resil::TransientError);
}

TEST(SupervisedSolve, MaxAttemptsOneDisablesRetries) {
  const ctmc::Ctmc chain = repair_pair();
  serve::SolveSpec spec;
  serve::SupervisionOptions options;
  options.retry.max_attempts = 1;
  options.inject_transient_faults = 1;
  ctmc::SolveCache cache;
  EXPECT_THROW((void)serve::supervised_solve(chain, spec, cache, options),
               resil::TransientError);
}

// ------------------------------------------------------------- admission

io::ModelFile tiny_model_file() {
  io::ModelFile file;
  file.model.state("Up", 1.0);
  file.model.state("Down", 0.0);
  file.model.rate("Up", "Down", "0.1");
  file.model.rate("Down", "Up", "2.0");
  return file;
}

TEST(Admission, VerdictIsEmptyWhenUncapped) {
  EXPECT_TRUE(serve::admission_verdict(tiny_model_file(), {}).empty());
}

TEST(Admission, StateCapShedsWithDeclaredSizes) {
  serve::SupervisionOptions options;
  options.admission_states = 1;
  const std::string verdict =
      serve::admission_verdict(tiny_model_file(), options);
  EXPECT_NE(verdict.find("2 states"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("cap is 1"), std::string::npos) << verdict;
}

TEST(Admission, NnzCapShedsWithDeclaredSizes) {
  serve::SupervisionOptions options;
  options.admission_nnz = 1;
  const std::string verdict =
      serve::admission_verdict(tiny_model_file(), options);
  EXPECT_NE(verdict.find("2 transitions"), std::string::npos) << verdict;
}

}  // namespace
}  // namespace rascal
