// Unit tests for the Krylov preconditioners: identity and Jacobi
// through the Krylov plan (factor, apply), ILU(0) on Ilu0Factors
// directly (analyze, factor, solve on a 32-bit pattern), each against
// hand-computable results, and the lint-style [Pnnn] structural
// rejections promised in precond.h.
#include "linalg/precond.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "linalg/krylov_plan.h"
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

// The 3-state generator [[-2, 1, 1], [2, -4, 2], [0.5, 0, -0.5]]: its
// plan's A has the diagonal (-2, -4, 1), the 1 from the ones row.
KrylovPlan three_state_plan() {
  KrylovPlan plan;
  plan.layout(0, CsrMatrix::from_parts(
                     3, 3, {0, 3, 6, 8}, {0, 1, 2, 0, 1, 2, 0, 2},
                     {-2.0, 1.0, 1.0, 2.0, -4.0, 2.0, 0.5, -0.5}));
  return plan;
}

TEST(IdentityPrecond, ApplyCopies) {
  KrylovPlan plan = three_state_plan();
  plan.factor(PrecondKind::kNone);
  const Vector r{3.0, -1.5, 0.0};
  Vector z;
  plan.apply(r, z);
  EXPECT_EQ(z, r);
}

TEST(JacobiPrecond, ApplyDividesByTheDiagonal) {
  KrylovPlan plan = three_state_plan();
  plan.factor(PrecondKind::kJacobi);
  Vector z;
  plan.apply({2.0, 2.0, 2.0}, z);
  ASSERT_EQ(z.size(), 3u);
  EXPECT_DOUBLE_EQ(z[0], -1.0);
  EXPECT_DOUBLE_EQ(z[1], -0.5);
  EXPECT_DOUBLE_EQ(z[2], 2.0);
}

TEST(JacobiPrecond, RejectsMissingDiagonal) {
  // State 1 is absorbing, so Q stores no (1,1): row 1 of A, column 1
  // of Q, has the entry from state 0 but no diagonal.
  KrylovPlan plan;
  plan.layout(0, CsrMatrix::from_parts(3, 3, {0, 2, 2, 4}, {0, 1, 0, 2},
                                       {-1.0, 1.0, 1.0, -1.0}));
  EXPECT_EQ(precond_code([&] { plan.factor(PrecondKind::kJacobi); }),
            "P002");
}

TEST(JacobiPrecond, RejectsZeroDiagonal) {
  KrylovPlan plan = three_state_plan();
  plan.values()[plan.diagonal_slots()[1]] = 0.0;
  EXPECT_EQ(precond_code([&] { plan.factor(PrecondKind::kJacobi); }),
            "P002");
}

// A CSR matrix's pattern and values with 32-bit indices, the form
// Ilu0Factors takes.
struct Pattern32 {
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;

  explicit Pattern32(const CsrMatrix& a) : values(a.values()) {
    for (const std::size_t p : a.row_ptr()) {
      row_ptr.push_back(static_cast<std::uint32_t>(p));
    }
    for (const std::size_t c : a.col_idx()) {
      col_idx.push_back(static_cast<std::uint32_t>(c));
    }
  }

  [[nodiscard]] CsrPatternView view() const { return {row_ptr, col_idx}; }
};

// The symbolic and the numeric pass on a's pattern and values.
void factor_ilu0(Ilu0Factors& ilu, const Pattern32& a) {
  ilu.analyze(a.view());
  ilu.factor(a.view(), a.values);
}

std::string ilu0_code(const CsrMatrix& a) {
  const Pattern32 pattern(a);
  Ilu0Factors ilu;
  return precond_code([&] { factor_ilu0(ilu, pattern); });
}

TEST(Ilu0Precond, RejectsEmptyRow) {
  // Row 1 has no entries at all — not even a diagonal.
  EXPECT_EQ(
      ilu0_code(CsrMatrix::from_parts(2, 2, {0, 2, 2}, {0, 1}, {1.0, 2.0})),
      "P003");
}

TEST(Ilu0Precond, RejectsZeroPivot) {
  // Row 1 stores (1,0) but no diagonal.
  EXPECT_EQ(
      ilu0_code(CsrMatrix::from_parts(2, 2, {0, 1, 2}, {0, 0}, {1.0, 1.0})),
      "P004");
}

TEST(Ilu0Precond, RejectsPivotEliminatedToZero) {
  // Elimination makes the (1,1) pivot 2 - (2/1)*1 = 0 even though the
  // stored entry is nonzero.
  EXPECT_EQ(ilu0_code(CsrMatrix::from_parts(2, 2, {0, 2, 4}, {0, 1, 0, 1},
                                            {1.0, 1.0, 2.0, 2.0})),
            "P004");
}

TEST(Ilu0Precond, IsExactOnTridiagonal) {
  // A tridiagonal matrix has no fill-in, so ILU(0) is a *complete* LU
  // factorization: solving with A x must reproduce x to rounding error.
  // Row i: -1 at i-1, 4 + 0.1 i on the diagonal, -2 at i+1; r = A x.
  constexpr std::size_t n = 9;
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) + 1.0);
  }
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  Vector r(n, 0.0);
  const auto put = [&](std::size_t i, std::size_t j, double v) {
    col_idx.push_back(j);
    values.push_back(v);
    r[i] += v * x[j];
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) put(i, i - 1, -1.0);
    put(i, i, 4.0 + static_cast<double>(i) * 0.1);
    if (i + 1 < n) put(i, i + 1, -2.0);
    row_ptr.push_back(col_idx.size());
  }
  const CsrMatrix a = CsrMatrix::from_parts(n, n, std::move(row_ptr),
                                            std::move(col_idx),
                                            std::move(values));
  const Pattern32 pattern(a);
  Ilu0Factors ilu;
  factor_ilu0(ilu, pattern);
  Vector z;
  ilu.solve(pattern.view(), r, z);
  ASSERT_EQ(z.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(z[i], x[i], 1e-12);
  // The factorization stores one value per nonzero plus one diagonal
  // index per row — and nothing dense.
  EXPECT_GE(ilu.memory_bytes(), a.non_zeros() * sizeof(double));
  EXPECT_LT(ilu.memory_bytes(), n * n * sizeof(double));
}

TEST(Ilu0Precond, ApplyIsDeterministic) {
  const Pattern32 pattern(
      CsrMatrix::from_parts(3, 3, {0, 2, 4, 6}, {0, 2, 0, 1, 1, 2},
                            {3.0, 1.0, -1.0, 2.5, 0.5, 4.0}));
  Ilu0Factors ilu;
  factor_ilu0(ilu, pattern);
  const Vector r{1.0, -2.0, 0.25};
  Vector z1;
  Vector z2;
  ilu.solve(pattern.view(), r, z1);
  ilu.solve(pattern.view(), r, z2);
  ASSERT_EQ(z1.size(), z2.size());
  EXPECT_EQ(std::memcmp(z1.data(), z2.data(), z1.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace rascal::linalg
