// Ordinary (strong) lumpability: collapsing symmetric states without
// changing the marginal law of the aggregated process.
//
// A partition {B_1..B_k} of the state space is ordinarily lumpable
// when, for every pair of states s, s' in the same block and every
// other block B_j, the aggregate rates sum_{t in B_j} q(s, t) and
// sum_{t in B_j} q(s', t) agree.  The quotient chain then carries
// those common aggregate rates.
//
// The paper's models are quotients of this kind: Figure 3 lumps
// "node A down / node B down" into one degraded state, and the
// N-instance occupancy model lumps instance identities into counts.
// tests/test_lumping.cpp verifies both constructions explicitly, with
// the quotient builder check::lump (check/reference_twins.h).
#pragma once

#include <string>
#include <vector>

#include "ctmc/ctmc.h"

namespace rascal::ctmc {

/// Disjoint blocks covering all states.
using Partition = std::vector<std::vector<StateId>>;

/// Checks ordinary lumpability within `tolerance` (relative to the
/// largest aggregate rate involved).  When `violation` is non-null
/// and the check fails, it receives a human-readable reason.
/// Throws std::invalid_argument when the partition does not cover the
/// state space exactly once.
[[nodiscard]] bool is_lumpable(const Ctmc& chain, const Partition& partition,
                               double tolerance = 1e-9,
                               std::string* violation = nullptr);

/// Coarsest ordinary lumping that also respects rewards: iterative
/// partition refinement starting from reward classes.  Always returns
/// a valid lumpable partition (possibly the trivial one with
/// singleton blocks).
[[nodiscard]] Partition coarsest_ordinary_lumping(const Ctmc& chain,
                                                  double tolerance = 1e-9);

}  // namespace rascal::ctmc
