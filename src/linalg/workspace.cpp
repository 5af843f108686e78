#include "linalg/workspace.h"

namespace rascal::linalg {

Vector& SolveWorkspace::sparse_vec(std::size_t slot, std::size_t n) {
  if (slot >= sparse_vectors_.size()) sparse_vectors_.resize(slot + 1);
  Vector& v = sparse_vectors_[slot];
  v.assign(n, 0.0);
  return v;
}

std::vector<Vector>& SolveWorkspace::krylov_basis(std::size_t count,
                                                  std::size_t n) {
  if (basis_.size() < count) basis_.resize(count);
  for (std::size_t i = 0; i < count; ++i) basis_[i].assign(n, 0.0);
  return basis_;
}

}  // namespace rascal::linalg
