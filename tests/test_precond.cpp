// Unit tests for the Krylov preconditioners: Jacobi and ILU(0)
// apply() correctness against hand-computable factorizations, and the
// lint-style [Pnnn] structural rejections promised in precond.h.
#include "linalg/precond.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "linalg/sparse.h"

namespace rascal::linalg {
namespace {

// Returns the PrecondError thrown by `fn`, failing the test when it
// throws nothing or something else.
template <typename Fn>
std::string precond_code(Fn&& fn) {
  try {
    fn();
  } catch (const PrecondError& error) {
    // The rendered message must lead with the bracketed code so lint
    // tooling can grep it out of solver logs.
    EXPECT_EQ(std::string(error.what()).rfind("[" + error.code() + "]", 0),
              0u)
        << error.what();
    return error.code();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "expected PrecondError, got: " << error.what();
    return "";
  }
  ADD_FAILURE() << "expected PrecondError, got no exception";
  return "";
}

TEST(PrecondName, CoversEveryKind) {
  EXPECT_STREQ(precond_name(PrecondKind::kNone), "none");
  EXPECT_STREQ(precond_name(PrecondKind::kJacobi), "jacobi");
  EXPECT_STREQ(precond_name(PrecondKind::kIlu0), "ilu0");
  PrecondKind parsed = PrecondKind::kIlu0;
  for (const PrecondKind kind :
       {PrecondKind::kNone, PrecondKind::kJacobi, PrecondKind::kIlu0}) {
    ASSERT_TRUE(parse_precond(precond_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  EXPECT_FALSE(parse_precond("ILU0", parsed));
}

TEST(IdentityPrecond, ApplyCopies) {
  const IdentityPreconditioner m;
  const Vector r{3.0, -1.5, 0.0};
  Vector z;
  m.apply(r, z);
  EXPECT_EQ(z, r);
  EXPECT_EQ(m.memory_bytes(), 0u);
}

TEST(JacobiPrecond, ApplyDividesByTheDiagonal) {
  const CsrMatrix a(3, 3,
                    {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 4.0}, {2, 0, 1.0},
                     {2, 2, -0.5}});
  const JacobiPreconditioner m(a);
  Vector z;
  m.apply({2.0, 2.0, 2.0}, z);
  ASSERT_EQ(z.size(), 3u);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 0.5);
  EXPECT_DOUBLE_EQ(z[2], -4.0);
  EXPECT_GE(m.memory_bytes(), 3u * sizeof(double));
}

TEST(JacobiPrecond, RejectsNonSquare) {
  const CsrMatrix a(2, 3, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_EQ(precond_code([&] { JacobiPreconditioner m(a); (void)m; }),
            "P001");
}

TEST(JacobiPrecond, RejectsMissingDiagonal) {
  // Row 1 has entries but no (1,1).
  const CsrMatrix a(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_EQ(precond_code([&] { JacobiPreconditioner m(a); (void)m; }),
            "P002");
}

TEST(JacobiPrecond, RejectsZeroDiagonal) {
  const CsrMatrix a(2, 2, {{0, 0, 1.0}, {1, 1, 0.0}, {1, 0, 2.0}});
  EXPECT_EQ(precond_code([&] { JacobiPreconditioner m(a); (void)m; }),
            "P002");
}

TEST(Ilu0Precond, RejectsNonSquare) {
  const CsrMatrix a(3, 2, {{0, 0, 1.0}});
  EXPECT_EQ(precond_code([&] { Ilu0Preconditioner m(a); (void)m; }),
            "P001");
}

TEST(Ilu0Precond, RejectsEmptyRow) {
  // Row 1 has no entries at all — not even a diagonal.
  const CsrMatrix a(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});
  EXPECT_EQ(precond_code([&] { Ilu0Preconditioner m(a); (void)m; }),
            "P003");
}

TEST(Ilu0Precond, RejectsZeroPivot) {
  // (1,1) present but exactly zero.
  const CsrMatrix a(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 0.0}});
  EXPECT_EQ(precond_code([&] { Ilu0Preconditioner m(a); (void)m; }),
            "P004");
}

TEST(Ilu0Precond, RejectsPivotEliminatedToZero) {
  // Elimination makes the (1,1) pivot 2 - (2/1)*1 = 0 even though the
  // stored entry is nonzero.
  const CsrMatrix a(2, 2,
                    {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 2.0}, {1, 1, 2.0}});
  EXPECT_EQ(precond_code([&] { Ilu0Preconditioner m(a); (void)m; }),
            "P004");
}

TEST(Ilu0Precond, IsExactOnTridiagonal) {
  // A tridiagonal matrix has no fill-in, so ILU(0) is a *complete* LU
  // factorization: apply(A x) must reproduce x to rounding error.
  constexpr std::size_t n = 9;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 4.0 + static_cast<double>(i) * 0.1});
    if (i > 0) triplets.push_back({i, i - 1, -1.0});
    if (i + 1 < n) triplets.push_back({i, i + 1, -2.0});
  }
  const CsrMatrix a(n, n, triplets);
  const Ilu0Preconditioner m(a);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) + 1.0);
  }
  const Vector r = a.multiply(x);
  Vector z;
  m.apply(r, z);
  ASSERT_EQ(z.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(z[i], x[i], 1e-12);
  // The factorization stores one value per nonzero plus one diagonal
  // index per row — and nothing dense.
  EXPECT_GE(m.memory_bytes(), a.non_zeros() * sizeof(double));
  EXPECT_LT(m.memory_bytes(), n * n * sizeof(double));
}

TEST(Ilu0Precond, ApplyIsDeterministic) {
  const CsrMatrix a(3, 3,
                    {{0, 0, 3.0}, {0, 2, 1.0}, {1, 0, -1.0}, {1, 1, 2.5},
                     {2, 1, 0.5}, {2, 2, 4.0}});
  const Ilu0Preconditioner m(a);
  const Vector r{1.0, -2.0, 0.25};
  Vector z1;
  Vector z2;
  m.apply(r, z1);
  m.apply(r, z2);
  ASSERT_EQ(z1.size(), z2.size());
  EXPECT_EQ(std::memcmp(z1.data(), z2.data(), z1.size() * sizeof(double)),
            0);
}

TEST(MakePreconditioner, DispatchesEveryKind) {
  const CsrMatrix a(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  EXPECT_NE(dynamic_cast<IdentityPreconditioner*>(
                make_preconditioner(PrecondKind::kNone, a).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<JacobiPreconditioner*>(
                make_preconditioner(PrecondKind::kJacobi, a).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<Ilu0Preconditioner*>(
                make_preconditioner(PrecondKind::kIlu0, a).get()),
            nullptr);
}

}  // namespace
}  // namespace rascal::linalg
