// Dense matrix exponential by scaling-and-squaring with a [6/6] Pade
// approximant.  Used as an independent oracle for the uniformization
// transient solver (exp(Q t) row gives the transient distribution),
// practical up to a few hundred states.
#pragma once

#include "linalg/matrix.h"

namespace rascal::check {

/// exp(A).  Throws std::invalid_argument for non-square input.
[[nodiscard]] linalg::Matrix matrix_exponential(const linalg::Matrix& a);

}  // namespace rascal::check
