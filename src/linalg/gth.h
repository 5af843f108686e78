// Grassmann-Taksar-Heyman (GTH) algorithm for the stationary
// distribution of an irreducible CTMC or DTMC.
//
// GTH performs Gaussian elimination using only the off-diagonal rates
// and never subtracts nearly-equal quantities, which makes it the
// method of choice for availability models whose rates span many
// orders of magnitude (e.g. 1e-7/h failure rates against 60/h repair
// rates).  See Grassmann, Taksar & Heyman, Oper. Res. 33(5), 1985.
#pragma once

#include "linalg/matrix.h"

namespace rascal::linalg {

/// Computes the stationary vector pi of the generator matrix Q
/// (pi Q = 0, sum pi = 1).  Q must be square with nonnegative
/// off-diagonal entries; the diagonal is ignored and reconstructed as
/// the negative row sum, so callers may pass either a full generator
/// or just the rate matrix.
///
/// Throws std::invalid_argument for non-square input or negative
/// off-diagonal entries, and std::domain_error when the chain is
/// reducible in a way that leaves a zero pivot (no single recurrent
/// class reachable from every state).
[[nodiscard]] Vector gth_stationary(Matrix q);

/// In-place variant for workspace reuse: `q` is consumed as the
/// elimination scratch and `pi` is resized and overwritten with the
/// stationary vector.  Runs the identical operation sequence as
/// gth_stationary (which delegates here), so results are bit-identical
/// whether or not the buffers are recycled.
void gth_stationary_in(Matrix& q, Vector& pi);

}  // namespace rascal::linalg
