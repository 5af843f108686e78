#include "linalg/precond.h"

#include <cmath>
#include <utility>

namespace rascal::linalg {

namespace {

void require_square(const CsrMatrix& a, const char* who) {
  if (a.rows() != a.cols() || a.rows() == 0) {
    throw PrecondError("P001", std::string(who) + ": matrix must be square "
                                   "and non-empty (" +
                                   std::to_string(a.rows()) + "x" +
                                   std::to_string(a.cols()) + ")");
  }
}

constexpr std::pair<PrecondKind, const char*> kPrecondNames[] = {
    {PrecondKind::kNone, "none"},
    {PrecondKind::kJacobi, "jacobi"},
    {PrecondKind::kIlu0, "ilu0"},
};

}  // namespace

const char* precond_name(PrecondKind kind) noexcept {
  for (const auto& [value, name] : kPrecondNames) {
    if (value == kind) return name;
  }
  return "unknown";
}

bool parse_precond(const std::string& name, PrecondKind& out) noexcept {
  for (const auto& [value, text] : kPrecondNames) {
    if (name == text) {
      out = value;
      return true;
    }
  }
  return false;
}

void IdentityPreconditioner::apply(const Vector& r, Vector& z) const {
  z = r;
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  require_square(a, "jacobi");
  const std::size_t n = a.rows();
  inv_diag_.assign(n, 0.0);
  const std::vector<std::size_t>& rp = a.row_ptr();
  const std::vector<std::size_t>& ci = a.col_idx();
  const std::vector<double>& vv = a.values();
  for (std::size_t r = 0; r < n; ++r) {
    double d = 0.0;
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] == r) {
        d = vv[k];
        break;
      }
    }
    if (d == 0.0 || !std::isfinite(d)) {
      throw PrecondError("P002", "jacobi: zero or missing diagonal at row " +
                                     std::to_string(r));
    }
    inv_diag_[r] = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(const Vector& r, Vector& z) const {
  const std::size_t n = inv_diag_.size();
  z.resize(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i] * inv_diag_[i];
}

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) : pattern_(&a) {
  require_square(a, "ilu0");
  const std::size_t n = a.rows();
  const std::vector<std::size_t>& rp = a.row_ptr();
  const std::vector<std::size_t>& ci = a.col_idx();

  luval_ = a.values();
  diag_.assign(n, rp[n]);  // sentinel: "no diagonal entry"

  // iw maps column -> position inside the current row (kNone when the
  // column is outside the row's pattern); reset incrementally so the
  // factorization stays O(sum over rows of row-length * work).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> iw(n, kNone);

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = rp[i];
    const std::size_t e = rp[i + 1];
    if (b == e) {
      throw PrecondError("P003",
                         "ilu0: empty row " + std::to_string(i) +
                             " (no entries; the pattern cannot be factored)");
    }
    for (std::size_t k = b; k < e; ++k) iw[ci[k]] = k;

    // Eliminate the strictly-lower entries of row i in column order
    // (the row is column-sorted), updating only positions inside the
    // row's own pattern — the defining ILU(0) restriction.
    for (std::size_t k = b; k < e && ci[k] < i; ++k) {
      const std::size_t col = ci[k];
      const std::size_t dk = diag_[col];
      // Row `col` was processed earlier, so its diagonal is known
      // present and nonzero.
      luval_[k] /= luval_[dk];
      const double factor = luval_[k];
      for (std::size_t kk = dk + 1; kk < rp[col + 1]; ++kk) {
        const std::size_t pos = iw[ci[kk]];
        if (pos != kNone) luval_[pos] -= factor * luval_[kk];
      }
    }

    const std::size_t di = iw[i];
    if (di == kNone || luval_[di] == 0.0 || !std::isfinite(luval_[di])) {
      for (std::size_t k = b; k < e; ++k) iw[ci[k]] = kNone;
      throw PrecondError(
          "P004", "ilu0: zero pivot at row " + std::to_string(i) +
                      (di == kNone ? " (diagonal missing from the pattern)"
                                   : " (diagonal eliminated to zero)"));
    }
    diag_[i] = di;
    for (std::size_t k = b; k < e; ++k) iw[ci[k]] = kNone;
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  const CsrMatrix& a = *pattern_;
  const std::size_t n = a.rows();
  const std::vector<std::size_t>& rp = a.row_ptr();
  const std::vector<std::size_t>& ci = a.col_idx();
  z.resize(n);

  // Forward solve L y = r (L unit lower triangular, stored strictly
  // below the diagonal), written into z.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = r[i];
    for (std::size_t k = rp[i]; k < diag_[i]; ++k) {
      acc -= luval_[k] * z[ci[k]];
    }
    z[i] = acc;
  }
  // Backward solve U z = y (U upper triangular including the
  // diagonal).
  for (std::size_t i = n; i-- > 0;) {
    double acc = z[i];
    for (std::size_t k = diag_[i] + 1; k < rp[i + 1]; ++k) {
      acc -= luval_[k] * z[ci[k]];
    }
    z[i] = acc / luval_[diag_[i]];
  }
}

std::unique_ptr<Preconditioner> make_preconditioner(PrecondKind kind,
                                                    const CsrMatrix& a) {
  switch (kind) {
    case PrecondKind::kNone: return std::make_unique<IdentityPreconditioner>();
    case PrecondKind::kJacobi: return std::make_unique<JacobiPreconditioner>(a);
    case PrecondKind::kIlu0: return std::make_unique<Ilu0Preconditioner>(a);
  }
  throw std::invalid_argument("make_preconditioner: unknown kind");
}

}  // namespace rascal::linalg
