#include "linalg/krylov_plan.h"

#include <stdexcept>

namespace rascal::linalg {

void KrylovPlan::layout(std::uint64_t pattern_id, const CsrMatrix& q) {
  if (q.rows() != q.cols() || q.rows() == 0) {
    throw std::invalid_argument(
        "KrylovPlan::layout: generator must be square and non-empty");
  }
  const std::size_t n = q.rows();
  require_32bit_indices(q.non_zeros() + n, "KrylovPlan");
  pattern_id_ = 0;  // a layout that throws leaves no reusable plan
  ilu_analyzed_ = false;
  const std::vector<std::size_t>& rp = q.row_ptr();
  const std::vector<std::size_t>& ci = q.col_idx();
  const std::vector<double>& vv = q.values();

  // A counting-sort transpose of q with output row n-1 (the balance
  // equation being replaced) rerouted to the all-ones normalization
  // row.
  row_ptr_.assign(n + 1, 0);
  for (std::size_t k = 0; k < q.non_zeros(); ++k) {
    if (ci[k] != n - 1) ++row_ptr_[ci[k] + 1];
  }
  row_ptr_[n] = static_cast<std::uint32_t>(n);  // the normalization row
  for (std::size_t c = 0; c < n; ++c) row_ptr_[c + 1] += row_ptr_[c];

  const std::uint32_t nnz = row_ptr_[n];
  col_idx_.resize(nnz);
  values_.resize(nnz);  // every slot is written below
  off_diagonal_slots_.clear();
  off_diagonal_slots_.reserve(q.non_zeros());
  diagonal_slots_.assign(n, kNoSlot);
  std::vector<std::uint32_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t c = ci[k];
      std::uint32_t slot = kNoSlot;
      if (c != n - 1) {
        slot = cursor[c]++;
        // Increasing r keeps each row column-sorted.
        col_idx_[slot] = static_cast<std::uint32_t>(r);
        values_[slot] = vv[k];
      }
      if (c == r) {
        diagonal_slots_[r] = slot;
      } else {
        off_diagonal_slots_.push_back(slot);
      }
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t slot = cursor[n - 1]++;
    col_idx_[slot] = static_cast<std::uint32_t>(j);
    values_[slot] = 1.0;
  }
  pattern_id_ = pattern_id;
}

void KrylovPlan::factor(PrecondKind kind) {
  const std::size_t n = rows();
  switch (kind) {
    case PrecondKind::kNone:
      break;
    case PrecondKind::kJacobi:
      inverse_diagonal_.resize(n);
      for (std::size_t r = 0; r < n; ++r) {
        // The normalization row's diagonal is its last entry.
        const std::uint32_t slot =
            r + 1 == n ? row_ptr_[r] + static_cast<std::uint32_t>(r)
                       : diagonal_slots_[r];
        inverse_diagonal_[r] =
            jacobi_inverse(slot == kNoSlot ? 0.0 : values_[slot], r);
      }
      break;
    case PrecondKind::kIlu0:
      if (!ilu_analyzed_) {
        ilu_.analyze(pattern());
        ilu_analyzed_ = true;
      }
      ilu_.factor(pattern(), values_);
      break;
    default:
      throw std::invalid_argument("KrylovPlan::factor: unknown kind");
  }
  factored_ = kind;
}

void KrylovPlan::multiply_into(const Vector& x, Vector& y) const {
  const std::size_t n = rows();
  y.resize(n);
  const std::uint32_t* rp = row_ptr_.data();
  const std::uint32_t* ci = col_idx_.data();
  const double* vv = values_.data();
  const double* xp = x.data();
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    const std::uint32_t end = rp[r + 1];
    for (std::uint32_t k = rp[r]; k < end; ++k) acc += vv[k] * xp[ci[k]];
    y[r] = acc;
  }
}

void KrylovPlan::apply(const Vector& r, Vector& z) const {
  switch (factored_) {
    case PrecondKind::kNone:
      z = r;
      return;
    case PrecondKind::kJacobi:
      z.resize(inverse_diagonal_.size());
      for (std::size_t i = 0; i < z.size(); ++i) {
        z[i] = r[i] * inverse_diagonal_[i];
      }
      return;
    case PrecondKind::kIlu0:
      ilu_.solve(pattern(), r, z);
      return;
  }
}

}  // namespace rascal::linalg
