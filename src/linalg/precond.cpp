#include "linalg/precond.h"

#include <cmath>
#include <utility>

namespace rascal::linalg {

namespace {

constexpr std::uint32_t kNoPosition = static_cast<std::uint32_t>(-1);

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

double jacobi_inverse(double d, std::size_t row) {
  if (d == 0.0 || !std::isfinite(d)) {
    throw PrecondError("P002", "jacobi: zero or missing diagonal at row " +
                                   std::to_string(row));
  }
  return 1.0 / d;
}

bool Ilu0Factors::eliminate_row(CsrPatternView pattern, std::size_t i,
                                std::vector<std::uint32_t>& iw) {
  const std::span<const std::uint32_t> rp = pattern.row_ptr;
  const std::span<const std::uint32_t> ci = pattern.col_idx;
  const std::uint32_t b = rp[i];
  const std::uint32_t e = rp[i + 1];
  if (b == e) {
    bad_row_ = i;
    return false;
  }
  for (std::uint32_t k = b; k < e; ++k) iw[ci[k]] = k;

  // The strictly-lower entries of row i are eliminated in column order
  // (the row is column-sorted); each one updates only the positions of
  // its pivot row's upper part that lie inside row i's own pattern,
  // the defining ILU(0) restriction.  Row ci[k] was eliminated
  // earlier, so its pivot is present.
  for (std::uint32_t k = b; k < e && ci[k] < i; ++k) {
    const std::uint32_t col = ci[k];
    const std::size_t count_at = updates_.size();
    updates_.push_back(0);
    for (std::uint32_t kk = diag_[col] + 1; kk < rp[col + 1]; ++kk) {
      const std::uint32_t pos = iw[ci[kk]];
      if (pos == kNoPosition) continue;
      updates_.push_back(pos);
      updates_.push_back(kk);
      ++updates_[count_at];
    }
  }
  const std::uint32_t di = iw[i];
  for (std::uint32_t k = b; k < e; ++k) iw[ci[k]] = kNoPosition;
  if (di == kNoPosition) {
    bad_row_ = i;
    return false;
  }
  diag_[i] = di;
  return true;
}

void Ilu0Factors::check_row(CsrPatternView pattern, std::size_t i) const {
  if (i == bad_row_) {
    if (pattern.row_ptr[i] == pattern.row_ptr[i + 1]) {
      throw PrecondError(
          "P003", "ilu0: empty row " + std::to_string(i) +
                      " (no entries; the pattern cannot be factored)");
    }
    throw PrecondError("P004", "ilu0: zero pivot at row " + std::to_string(i) +
                                   " (diagonal missing from the pattern)");
  }
  const double pivot = lu_[diag_[i]];
  if (pivot == 0.0 || !std::isfinite(pivot)) {
    throw PrecondError("P004", "ilu0: zero pivot at row " + std::to_string(i) +
                                   " (diagonal eliminated to zero)");
  }
}

void Ilu0Factors::analyze(CsrPatternView pattern) {
  require_32bit_indices(pattern.col_idx.size(), "ilu0");
  diag_.assign(pattern.rows(), kNoPosition);
  updates_.clear();
  bad_row_ = pattern.rows();
  // iw maps column -> position inside the current row (kNoPosition
  // when the column is outside the row's pattern); reset per row so
  // the pass stays O(sum over rows of row-length * work).
  std::vector<std::uint32_t> iw(pattern.rows(), kNoPosition);
  for (std::size_t i = 0; i < pattern.rows(); ++i) {
    if (!eliminate_row(pattern, i, iw)) return;
  }
}

void Ilu0Factors::factor(CsrPatternView pattern,
                         std::span<const double> values) {
  const std::span<const std::uint32_t> rp = pattern.row_ptr;
  const std::span<const std::uint32_t> ci = pattern.col_idx;
  lu_.assign(values.begin(), values.end());
  const std::uint32_t* update = updates_.data();
  for (std::size_t i = 0; i < pattern.rows(); ++i) {
    if (i != bad_row_) {
      // Row i's recorded updates: divide each strictly-lower entry by
      // its column's pivot, then subtract its multiple of the pivot
      // row's upper part.
      for (std::uint32_t k = rp[i]; k < diag_[i]; ++k) {
        lu_[k] /= lu_[diag_[ci[k]]];
        const double factor = lu_[k];
        const std::uint32_t count = *update++;
        for (std::uint32_t u = 0; u < count; ++u, update += 2) {
          lu_[update[0]] -= factor * lu_[update[1]];
        }
      }
    }
    check_row(pattern, i);
  }
}

void Ilu0Factors::solve(CsrPatternView pattern, const Vector& r,
                        Vector& z) const {
  const std::size_t n = pattern.rows();
  const std::uint32_t* rp = pattern.row_ptr.data();
  const std::uint32_t* ci = pattern.col_idx.data();
  const std::uint32_t* diag = diag_.data();
  const double* lu = lu_.data();
  z.resize(n);
  double* zp = z.data();

  // Forward solve L y = r (L unit lower triangular, stored strictly
  // below the diagonal), written into z.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = r[i];
    for (std::size_t k = rp[i]; k < diag[i]; ++k) acc -= lu[k] * zp[ci[k]];
    zp[i] = acc;
  }
  // Backward solve U z = y (U upper triangular including the
  // diagonal).
  for (std::size_t i = n; i-- > 0;) {
    double acc = zp[i];
    for (std::size_t k = std::size_t{diag[i]} + 1; k < rp[i + 1]; ++k) {
      acc -= lu[k] * zp[ci[k]];
    }
    zp[i] = acc / lu[diag[i]];
  }
}

}  // namespace rascal::linalg
