// Unit tests for the sparse Krylov engine (linalg/krylov.h): exact
// small solves, restart-boundary GMRES(m), BiCGStab breakdown
// detection, singular-system refusal, cancellation poll cadence,
// stationary wrappers against dense GTH, workspace bit-identity, and
// the large-state-space memory-footprint acceptance on the k-of-n
// replicated-AS model.
#include "linalg/krylov.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/gth.h"
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

// A small nonsymmetric, diagonally dominant system with a known
// solution x, as b = A x.
CsrMatrix small_system(Vector& b, Vector& x) {
  const CsrMatrix a(4, 4,
                    {{0, 0, 5.0}, {0, 1, 1.0}, {1, 0, -2.0}, {1, 1, 6.0},
                     {1, 3, 1.0}, {2, 2, 4.0}, {2, 0, 0.5}, {3, 3, 7.0},
                     {3, 2, -1.0}});
  x = {1.0, -2.0, 0.5, 3.0};
  b = a.multiply(x);
  return a;
}

TEST(Gmres, SolvesSmallSystemExactlyUnderEveryPrecond) {
  Vector b;
  Vector x;
  const CsrMatrix a = small_system(b, x);
  for (const PrecondKind kind :
       {PrecondKind::kNone, PrecondKind::kJacobi, PrecondKind::kIlu0}) {
    KrylovOptions options;
    options.precond = kind;
    const KrylovResult result = gmres(a, b, options);
    EXPECT_TRUE(result.converged) << precond_name(kind);
    EXPECT_FALSE(result.breakdown);
    EXPECT_LE(result.iterations, 8u) << precond_name(kind);
    EXPECT_LT(max_abs_diff(result.x, x), 1e-10) << precond_name(kind);
  }
}

TEST(BiCgStab, SolvesSmallSystemExactlyUnderEveryPrecond) {
  Vector b;
  Vector x;
  const CsrMatrix a = small_system(b, x);
  for (const PrecondKind kind :
       {PrecondKind::kNone, PrecondKind::kJacobi, PrecondKind::kIlu0}) {
    KrylovOptions options;
    options.precond = kind;
    const KrylovResult result = bicgstab(a, b, options);
    EXPECT_TRUE(result.converged) << precond_name(kind);
    EXPECT_LT(max_abs_diff(result.x, x), 1e-9) << precond_name(kind);
  }
}

TEST(Gmres, ZeroRhsReturnsZeroImmediately) {
  Vector b;
  Vector x;
  const CsrMatrix a = small_system(b, x);
  const KrylovResult result = gmres(a, Vector(4, 0.0), {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.x, Vector(4, 0.0));
}

TEST(Gmres, ShapeMismatchThrows) {
  const CsrMatrix a(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW((void)gmres(a, Vector{1.0, 2.0}, {}), std::invalid_argument);
  const CsrMatrix sq(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW((void)gmres(sq, Vector{1.0, 2.0, 3.0}, {}),
               std::invalid_argument);
}

TEST(Gmres, ConvergesAcrossRestartBoundaries) {
  // restart = 2 on a 30-state chain system: the subspace is rebuilt
  // many times and the true-residual restart bookkeeping has to carry
  // the iterate across each boundary.
  constexpr std::size_t n = 30;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 4.0});
    if (i + 1 < n) triplets.push_back({i, i + 1, -1.0});
    if (i > 0) triplets.push_back({i, i - 1, -1.5});
  }
  const CsrMatrix a(n, n, triplets);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(static_cast<double>(i));
  }
  const Vector b = a.multiply(x);
  KrylovOptions options;
  options.restart = 2;
  options.precond = PrecondKind::kNone;
  const KrylovResult result = gmres(a, b, options);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 2u);  // must actually have restarted
  EXPECT_LT(max_abs_diff(result.x, x), 1e-8);
}

TEST(BiCgStab, DetectsBreakdownInsteadOfProducingNaN) {
  // The classic rotation matrix: rhat = r = b makes the very first
  // dot(rhat, A p) vanish, so the rho/den recurrence has no valid
  // continuation.  The solver must report breakdown, not NaN.
  const CsrMatrix a(2, 2, {{0, 1, 1.0}, {1, 0, -1.0}});
  KrylovOptions options;
  options.precond = PrecondKind::kNone;  // the diagonal is empty
  const KrylovResult result = bicgstab(a, Vector{1.0, 0.0}, options);
  EXPECT_TRUE(result.breakdown);
  EXPECT_FALSE(result.converged);
  for (const double v : result.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gmres, SingularSystemDoesNotConverge) {
  // Rank-1 matrix with an inconsistent right-hand side: no x exists,
  // and the solver has to say so rather than loop forever.
  const CsrMatrix a(2, 2,
                    {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  KrylovOptions options;
  options.precond = PrecondKind::kNone;
  options.max_iterations = 64;
  const KrylovResult result = gmres(a, Vector{1.0, 0.0}, options);
  EXPECT_FALSE(result.converged);
  EXPECT_GT(result.residual, 1e-3);
  for (const double v : result.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Krylov, PreArmedCancelStopsBeforeTheFirstMatvec) {
  // The poll cadence is once per iteration, checked at the top: a
  // token cancelled before the solve starts must yield zero matvecs.
  Vector b;
  Vector x;
  const CsrMatrix a = small_system(b, x);
  resil::CancellationToken cancel;
  cancel.request_cancel();
  KrylovOptions options;
  options.cancel = &cancel;
  const KrylovResult g = gmres(a, b, options);
  EXPECT_TRUE(g.cancelled);
  EXPECT_FALSE(g.converged);
  EXPECT_EQ(g.iterations, 0u);
  const KrylovResult bi = bicgstab(a, b, options);
  EXPECT_TRUE(bi.cancelled);
  EXPECT_FALSE(bi.converged);
  EXPECT_EQ(bi.iterations, 0u);
}

// A small ergodic generator (5-state availability-style chain).
CsrMatrix small_generator() {
  std::vector<Triplet> triplets;
  const auto add = [&](std::size_t from, std::size_t to, double rate) {
    triplets.push_back({from, to, rate});
    triplets.push_back({from, from, -rate});
  };
  add(0, 1, 0.02);
  add(0, 2, 0.005);
  add(1, 0, 12.0);
  add(1, 3, 0.01);
  add(2, 0, 0.5);
  add(3, 4, 2.0);
  add(4, 0, 6.0);
  return CsrMatrix(5, 5, triplets);
}

TEST(Stationary, WrappersMatchDenseGth) {
  const CsrMatrix q = small_generator();
  const Vector reference = gth_stationary(q.to_dense());
  for (const PrecondKind kind :
       {PrecondKind::kNone, PrecondKind::kJacobi, PrecondKind::kIlu0}) {
    KrylovOptions options;
    options.precond = kind;
    const KrylovResult g = gmres_stationary(q, options);
    EXPECT_TRUE(g.converged) << precond_name(kind);
    EXPECT_LT(max_abs_diff(g.x, reference), 1e-9) << precond_name(kind);
    const KrylovResult bi = bicgstab_stationary(q, options);
    EXPECT_TRUE(bi.converged) << precond_name(kind);
    EXPECT_LT(max_abs_diff(bi.x, reference), 1e-9) << precond_name(kind);
  }
}

TEST(Stationary, SolutionIsAProbabilityVector) {
  const CsrMatrix q = small_generator();
  const KrylovResult result = gmres_stationary(q, {});
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
  const CsrMatrix a = stationary_system(q);
  ASSERT_EQ(a.rows(), 5u);
  ASSERT_EQ(a.cols(), 5u);
  // The last row is all ones (fully dense).
  const auto last = a.row(4);
  ASSERT_EQ(last.size(), 5u);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(last[j].first, j);
    EXPECT_DOUBLE_EQ(last[j].second, 1.0);
  }
  // The other rows are Q^T with the last balance row dropped:
  // a(i, j) = q(j, i) for i < n-1.
  const Matrix dense_q = q.to_dense();
  const Matrix dense_a = a.to_dense();
  for (std::size_t i = 0; i + 1 < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(dense_a(i, j), dense_q(j, i)) << i << "," << j;
    }
  }
}

TEST(Krylov, DirtyWorkspaceReuseIsBitIdentical) {
  const CsrMatrix q = small_generator();
  const KrylovResult fresh = gmres_stationary(q, {});
  ASSERT_TRUE(fresh.converged);

  SolveWorkspace workspace;
  // Dirty the pools with a solve of a different shape first.
  Vector b;
  Vector x;
  const CsrMatrix other = small_system(b, x);
  KrylovOptions dirty;
  dirty.workspace = &workspace;
  (void)gmres(other, b, dirty);
  (void)bicgstab(other, b, dirty);

  for (int rep = 0; rep < 2; ++rep) {
    KrylovOptions options;
    options.workspace = &workspace;
    const KrylovResult reused = gmres_stationary(q, options);
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
  const KrylovResult result = gmres_stationary(sparse.generator, options);
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
  // every byte the solver holds — CSR generator, factorization,
  // Krylov basis — stays far below the 8 n^2 bytes a dense Matrix
  // would need (~251 GB here).
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
  const auto precond =
      make_preconditioner(PrecondKind::kIlu0, model.generator);
  const std::size_t csr_bytes =
      model.generator.non_zeros() * (sizeof(double) + sizeof(std::size_t)) +
      (n + 1) * sizeof(std::size_t);
  const std::size_t basis_bytes = (options.restart + 1) * n * sizeof(double);
  const std::size_t sparse_bytes =
      csr_bytes + precond->memory_bytes() + basis_bytes;
  // 8 n^2 would overflow nothing here (n^2 ~ 3.1e10) but dwarfs the
  // sparse footprint by more than three orders of magnitude.
  EXPECT_LT(sparse_bytes, n * n * sizeof(double) / 1000);

  const KrylovResult result = gmres_stationary(model.generator, options);
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
  const KrylovResult cross = bicgstab_stationary(model.generator, options);
  ASSERT_TRUE(cross.converged);
  EXPECT_LT(max_abs_diff(cross.x, result.x), 1e-8);
}

}  // namespace
}  // namespace rascal::linalg
