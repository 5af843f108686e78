// Unit tests for the sparse Krylov engine (linalg/krylov.h) on its
// one system, the Krylov plan (linalg/krylov_plan.h): the augmented
// system a layout builds, restart-boundary GMRES(m) against a closed
// form, BiCGStab breakdown detection, singular-system refusal,
// cancellation poll cadence, stationary solves against dense GTH,
// workspace bit-identity, and the large-state-space memory-footprint
// acceptance on the k-of-n replicated-AS model.
#include "linalg/krylov.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctmc/builder.h"
#include "linalg/gth.h"
#include "linalg/krylov_plan.h"
#include "linalg/sparse.h"
#include "linalg/workspace.h"
#include "models/kofn_as.h"
#include "resil/cancel.h"

namespace rascal::linalg {
namespace {

double max_abs_diff(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// A plan laid out for q, holding q's values.
KrylovPlan plan_for(const CsrMatrix& q) {
  KrylovPlan plan;
  plan.layout(0, q);
  return plan;
}

// The plan's A, column by column: A e_j through multiply_into.
Matrix system_of(const KrylovPlan& plan) {
  const std::size_t n = plan.rows();
  Matrix a(n, n);
  Vector unit(n, 0.0);
  Vector column;
  for (std::size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    plan.multiply_into(unit, column);
    unit[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) a(i, j) = column[i];
  }
  return a;
}

void expect_same_matrix(const Matrix& got, const Matrix& want,
                        const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << what << " (" << i << "," << j << ")";
    }
  }
}

// A small ergodic chain (5-state availability-style chain).
ctmc::Ctmc small_chain() {
  ctmc::CtmcBuilder b;
  for (const char* name : {"s0", "s1", "s2", "s3", "s4"}) b.state(name, 1.0);
  b.rate(0, 1, 0.02).rate(0, 2, 0.005).rate(1, 0, 12.0).rate(1, 3, 0.01);
  b.rate(2, 0, 0.5).rate(3, 4, 2.0).rate(4, 0, 6.0);
  return b.build();
}

CsrMatrix small_generator() { return small_chain().sparse_generator(); }

// A birth-death chain on 0..n-1: i -> i+1 at `birth`, i -> i-1 at
// `death`.
CsrMatrix birth_death_generator(std::size_t n, double birth, double death) {
  ctmc::CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.state("b" + std::to_string(i), 1.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.rate(i, i + 1, birth).rate(i + 1, i, death);
  }
  return b.build().sparse_generator();
}

TEST(KrylovPlan, LayoutRejectsANonSquareOrEmptyGenerator) {
  KrylovPlan plan;
  EXPECT_THROW(
      plan.layout(1, CsrMatrix::from_parts(2, 3, {0, 1, 1}, {0}, {1.0})),
      std::invalid_argument);
  EXPECT_THROW(plan.layout(1, CsrMatrix()), std::invalid_argument);
  EXPECT_EQ(plan.pattern_id(), 0u);
  // A plan with no layout has no system to solve.
  EXPECT_THROW((void)gmres_stationary(plan, {}), std::invalid_argument);
  EXPECT_THROW((void)bicgstab_stationary(plan, {}), std::invalid_argument);
}

TEST(Gmres, ConvergesAcrossRestartBoundaries) {
  // restart = 2 on a 30-state birth-death chain: the subspace is
  // rebuilt many times and the true-residual restart bookkeeping has
  // to carry the iterate across each boundary.  The chain's
  // stationary distribution is geometric: pi_i ~ (birth/death)^i.
  constexpr std::size_t n = 30;
  constexpr double kBirth = 4.0;
  constexpr double kDeath = 1.0;
  KrylovPlan plan = plan_for(birth_death_generator(n, kBirth, kDeath));
  KrylovOptions options;
  options.restart = 2;
  options.precond = PrecondKind::kJacobi;
  const KrylovResult result = gmres_stationary(plan, options);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 2u);  // must actually have restarted

  const double ratio = kBirth / kDeath;
  const double total =
      (1.0 - std::pow(ratio, static_cast<double>(n))) / (1.0 - ratio);
  Vector closed_form(n);
  for (std::size_t i = 0; i < n; ++i) {
    closed_form[i] = std::pow(ratio, static_cast<double>(i)) / total;
  }
  EXPECT_LT(max_abs_diff(result.x, closed_form), 1e-10);
}

// A 2-state plan whose A the test overwrites: the generator's pattern
// fills all four entries of A, row-major in values().
KrylovPlan two_state_plan(double a00, double a01, double a10, double a11) {
  KrylovPlan plan = plan_for(CsrMatrix::from_parts(
      2, 2, {0, 2, 4}, {0, 1, 0, 1}, {-1.0, 1.0, 1.0, -1.0}));
  const std::span<double> values = plan.values();
  EXPECT_EQ(values.size(), 4u);
  values[0] = a00;
  values[1] = a01;
  values[2] = a10;
  values[3] = a11;
  return plan;
}

TEST(BiCgStab, DetectsBreakdownInsteadOfProducingNaN) {
  // The rotation A = [[0, 1], [-1, 0]] with b = e_1 and x0 = (1/2,
  // 1/2): rhat = r0 = (-1/2, 3/2), and dot(rhat, A r0) is exactly 0,
  // so the rho/den recurrence has no valid continuation.  The solver
  // must report breakdown, not NaN.
  KrylovPlan plan = two_state_plan(0.0, 1.0, -1.0, 0.0);
  KrylovOptions options;
  options.precond = PrecondKind::kNone;  // the diagonal is empty
  const KrylovResult result = bicgstab_stationary(plan, options);
  EXPECT_TRUE(result.breakdown);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
  for (const double v : result.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gmres, SingularSystemDoesNotConverge) {
  // Rank-1 A = [[1, 1], [1, 1]] with b = e_1: no x exists, and the
  // solver has to say so rather than loop forever.
  KrylovPlan plan = two_state_plan(1.0, 1.0, 1.0, 1.0);
  KrylovOptions options;
  options.precond = PrecondKind::kNone;
  options.max_iterations = 64;
  const KrylovResult result = gmres_stationary(plan, options);
  EXPECT_FALSE(result.converged);
  EXPECT_GT(result.residual, 1e-3);
  for (const double v : result.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Krylov, PreArmedCancelStopsBeforeTheFirstMatvec) {
  // The poll cadence is once per iteration, checked at the top: a
  // token cancelled before the solve starts must yield zero matvecs.
  KrylovPlan plan = plan_for(small_generator());
  resil::CancellationToken cancel;
  cancel.set_deadline_after(0.0);
  KrylovOptions options;
  options.cancel = &cancel;
  const KrylovResult g = gmres_stationary(plan, options);
  EXPECT_TRUE(g.cancelled);
  EXPECT_FALSE(g.converged);
  EXPECT_EQ(g.iterations, 0u);
  const KrylovResult bi = bicgstab_stationary(plan, options);
  EXPECT_TRUE(bi.cancelled);
  EXPECT_FALSE(bi.converged);
  EXPECT_EQ(bi.iterations, 0u);
}

TEST(Stationary, WrappersMatchDenseGth) {
  const CsrMatrix q = small_generator();
  const Vector reference = gth_stationary(small_chain().generator());
  KrylovPlan plan = plan_for(q);
  for (const PrecondKind kind :
       {PrecondKind::kNone, PrecondKind::kJacobi, PrecondKind::kIlu0}) {
    KrylovOptions options;
    options.precond = kind;
    const KrylovResult g = gmres_stationary(plan, options);
    EXPECT_TRUE(g.converged) << precond_name(kind);
    EXPECT_LT(max_abs_diff(g.x, reference), 1e-9) << precond_name(kind);
    const KrylovResult bi = bicgstab_stationary(plan, options);
    EXPECT_TRUE(bi.converged) << precond_name(kind);
    EXPECT_LT(max_abs_diff(bi.x, reference), 1e-9) << precond_name(kind);
  }
}

TEST(Stationary, SolutionIsAProbabilityVector) {
  KrylovPlan plan = plan_for(small_generator());
  const KrylovResult result = gmres_stationary(plan, {});
  ASSERT_TRUE(result.converged);
  double sum = 0.0;
  for (const double p : result.x) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Stationary, AugmentedSystemHasTheNormalizationRow) {
  const CsrMatrix q = small_generator();
  const std::size_t n = q.rows();
  // A is Q^T with its last row, the balance equation it replaces,
  // all ones.
  const Matrix dense_q = small_chain().generator();
  Matrix augmented(n, n, 1.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) augmented(i, j) = dense_q(j, i);
  }
  KrylovPlan plan = plan_for(q);
  ASSERT_EQ(plan.rows(), n);
  expect_same_matrix(system_of(plan), augmented, "laid out");

  // The slots name every entry of A outside the ones row: clearing
  // them leaves that row alone, and writing q's entries back through
  // them, as a solve of a new draw does, gives A again.
  const std::span<double> values = plan.values();
  const std::span<const std::uint32_t> off = plan.off_diagonal_slots();
  const std::span<const std::uint32_t> diag = plan.diagonal_slots();
  ASSERT_EQ(off.size() + diag.size(), q.non_zeros());
  for (const std::span<const std::uint32_t> slots : {off, diag}) {
    for (const std::uint32_t slot : slots) {
      if (slot != KrylovPlan::kNoSlot) values[slot] = 0.0;
    }
  }
  Matrix ones_row(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) ones_row(n - 1, j) = 1.0;
  expect_same_matrix(system_of(plan), ones_row, "slots cleared");

  std::size_t k = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t e = q.row_ptr()[r]; e < q.row_ptr()[r + 1]; ++e) {
      const std::uint32_t slot = q.col_idx()[e] == r ? diag[r] : off[k++];
      if (slot != KrylovPlan::kNoSlot) values[slot] = q.values()[e];
    }
  }
  expect_same_matrix(system_of(plan), augmented, "refilled");
}

TEST(Krylov, DirtyWorkspaceReuseIsBitIdentical) {
  const CsrMatrix q = small_generator();
  KrylovPlan fresh_plan = plan_for(q);
  const KrylovResult fresh = gmres_stationary(fresh_plan, {});
  ASSERT_TRUE(fresh.converged);

  // Dirty the pools and the workspace's own plan with solves of a
  // different shape first.
  SolveWorkspace workspace;
  KrylovPlan& plan = workspace.krylov_plan();
  plan.layout(0, birth_death_generator(30, 1.0, 1.5));
  KrylovOptions dirty;
  dirty.workspace = &workspace;
  dirty.precond = PrecondKind::kIlu0;
  (void)gmres_stationary(plan, dirty);
  (void)bicgstab_stationary(plan, dirty);

  plan.layout(0, q);
  for (int rep = 0; rep < 2; ++rep) {
    KrylovOptions options;
    options.workspace = &workspace;
    const KrylovResult reused = gmres_stationary(plan, options);
    ASSERT_TRUE(reused.converged);
    ASSERT_EQ(reused.x.size(), fresh.x.size());
    EXPECT_EQ(std::memcmp(reused.x.data(), fresh.x.data(),
                          fresh.x.size() * sizeof(double)),
              0)
        << "rep " << rep;
    EXPECT_EQ(reused.iterations, fresh.iterations);
    EXPECT_EQ(reused.residual, fresh.residual);
  }
}

TEST(KofnAs, SparseModelMatchesDenseGthAtSmallN) {
  // The CSR-direct generator and the named-Ctmc generator must be the
  // same chain: solve the sparse one with GMRES and compare with GTH
  // on the dense generator of the Ctmc path.
  models::KofnAsConfig config;
  config.nodes = 4;
  config.quorum = 3;
  config.repair_crews = 2;
  const models::KofnAsSparseModel sparse =
      models::kofn_as_sparse_model(config);
  const ctmc::Ctmc chain = models::kofn_as_model(config);
  ASSERT_EQ(sparse.generator.rows(), chain.num_states());
  const Vector reference = gth_stationary(chain.generator());
  KrylovOptions options;
  options.precond = PrecondKind::kIlu0;
  KrylovPlan plan = plan_for(sparse.generator);
  const KrylovResult result = gmres_stationary(plan, options);
  ASSERT_TRUE(result.converged);
  EXPECT_LT(max_abs_diff(result.x, reference), 1e-9);
  // Rewards agree with the named states' rewards.
  ASSERT_EQ(sparse.rewards.size(), chain.num_states());
  for (std::size_t i = 0; i < chain.num_states(); ++i) {
    EXPECT_DOUBLE_EQ(sparse.rewards[i], chain.states()[i].reward);
  }
}

TEST(KofnAs, HundredThousandStateSolveStaysUnderDenseMemory) {
  // The acceptance gate for the sparse engine: an 11-node k-of-n AS
  // tier (3^11 = 177,147 states) solves via GMRES + ILU(0) while
  // every byte the solver holds — CSR generator, the plan's system
  // and factorization, Krylov basis — stays far below the 8 n^2 bytes
  // a dense Matrix would need (~251 GB here).
  models::KofnAsConfig config;
  config.nodes = 11;
  config.quorum = 8;
  config.repair_crews = 3;
  std::size_t n = 1;  // 3^nodes states
  for (std::size_t i = 0; i < config.nodes; ++i) n *= 3;
  ASSERT_GE(n, 100000u);
  const models::KofnAsSparseModel model =
      models::kofn_as_sparse_model(config);
  ASSERT_EQ(model.generator.rows(), n);

  KrylovOptions options;
  options.precond = PrecondKind::kIlu0;
  options.restart = 40;
  KrylovPlan plan = plan_for(model.generator);
  plan.factor(PrecondKind::kIlu0);
  const std::size_t csr_bytes =
      model.generator.non_zeros() * (sizeof(double) + sizeof(std::size_t)) +
      (n + 1) * sizeof(std::size_t);
  const std::size_t basis_bytes = (options.restart + 1) * n * sizeof(double);
  const std::size_t sparse_bytes =
      csr_bytes + plan.memory_bytes() + basis_bytes;
  // 8 n^2 would overflow nothing here (n^2 ~ 3.1e10) but dwarfs the
  // sparse footprint by more than three orders of magnitude.
  EXPECT_LT(sparse_bytes, n * n * sizeof(double) / 1000);

  const KrylovResult result = gmres_stationary(plan, options);
  ASSERT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-10);

  double sum = 0.0;
  double availability = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += result.x[i];
    availability += result.x[i] * model.rewards[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(availability, 0.99);  // fast restarts dominate
  EXPECT_LT(availability, 1.0);

  // Differential check at scale: BiCGStab must land on the same
  // stationary vector without ever seeing GMRES's iterates.
  const KrylovResult cross = bicgstab_stationary(plan, options);
  ASSERT_TRUE(cross.converged);
  EXPECT_LT(max_abs_diff(cross.x, result.x), 1e-8);
}

}  // namespace
}  // namespace rascal::linalg
