// Extension: a k-of-n replicated application-server tier.
//
// The paper's AS cluster has two instances; cluster-scale deployments
// replicate the AS tier across n nodes and declare service up while
// at least k of them are serving (load-balancer quorum).  Each node
// cycles through three local states — Up, Restarting (the watchdog
// caught the failure; fast automatic restart) and Rebuilding (the
// failure escaped coverage; slow session-store resync) — and repairs
// draw from a shared pool of repair crews, which couples the nodes
// and breaks any product form.  The full chain has 3^n states: n = 11
// already gives 177,147 states and n = 13 gives 1.6 million, exactly
// the regime the sparse Krylov engine (linalg/krylov.h) exists for.
#pragma once

#include <cstddef>

#include "ctmc/ctmc.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace rascal::models {

struct KofnAsConfig {
  std::size_t nodes = 6;         // n replicated AS instances (3^n states)
  std::size_t quorum = 4;        // service up while >= quorum nodes are Up
  std::size_t repair_crews = 2;  // shared repair pool (head-of-line service)
  double failure_rate = 0.02;    // per-node failure rate while Up
  double restart_coverage = 0.9;  // failure caught by the watchdog
  double restart_rate = 12.0;     // Restarting -> Up (fast)
  double rebuild_rate = 0.5;      // Rebuilding -> Up (slow resync)
};

/// Full named Ctmc for moderate n (state names encode the per-node
/// digits, e.g. "as:001020").  Throws std::invalid_argument on an
/// ill-formed config (quorum/crews out of range, non-positive rates,
/// coverage outside [0, 1]).
[[nodiscard]] ctmc::Ctmc kofn_as_model(const KofnAsConfig& config);

struct KofnAsSparseModel {
  linalg::CsrMatrix generator;  // Q in CSR form, diagonal included
  linalg::Vector rewards;       // 1.0 iff >= quorum nodes Up
};

/// CSR-direct generator for the large-n path: states are enumerated
/// in encoding order so the rows are built in order, straight into
/// the CSR arrays, and no Ctmc, state-name strings, or dense Matrix
/// are ever built.  Same validation as kofn_as_model.
[[nodiscard]] KofnAsSparseModel kofn_as_sparse_model(
    const KofnAsConfig& config);

}  // namespace rascal::models
