// Top-level JSAS system model — Figure 2 of the paper — and named
// configurations.
//
// The system model is a 3-state chain: Ok(1), AS_Fail(0),
// HADB_Fail(0).  Its rates are the two-state equivalents exported by
// the Application Server and HADB node-pair submodels; the HADB entry
// rate is multiplied by the number of node pairs, since losing any
// pair loses a fragment of every session table.
#pragma once

#include <cstddef>
#include <string>

#include "core/hierarchy.h"
#include "ctmc/solve_cache.h"
#include "expr/parameter_set.h"

namespace rascal::models {

struct JsasConfig {
  std::size_t as_instances = 2;
  std::size_t hadb_pairs = 2;
  std::size_t hadb_spares = 2;  // informational; Figure 3 assumes a
                                // spare is available for Repair

  /// Config 1 of the paper: 2 AS instances, 2 HADB pairs, 2 spares.
  [[nodiscard]] static JsasConfig config1() { return {2, 2, 2}; }
  /// Config 2 of the paper: 4 AS instances, 4 HADB pairs, 2 spares.
  [[nodiscard]] static JsasConfig config2() { return {4, 4, 2}; }
  /// Table 3 sweep entry: n instances with n HADB pairs.
  [[nodiscard]] static JsasConfig symmetric(std::size_t n) {
    return {n, n, 2};
  }

  [[nodiscard]] std::string name() const;
};

/// Builds the full hierarchy for a configuration: the AS submodel
/// (Figure 4 for 2 instances, generalized otherwise), the HADB pair
/// submodel (Figure 3), and the Figure-2 root.  Requires
/// as_instances >= 2 and hadb_pairs >= 1.
[[nodiscard]] core::HierarchicalModel jsas_model(const JsasConfig& config);

/// Result of solving a configuration, in the units the paper reports.
struct JsasResult {
  double availability = 1.0;
  double downtime_minutes_per_year = 0.0;
  double downtime_as_minutes = 0.0;    // YD attributed to the AS submodel
  double downtime_hadb_minutes = 0.0;  // YD attributed to HADB pairs
  double mtbf_hours = 0.0;
  core::HierarchicalResult detail;
};

/// Solves a configuration with the given parameters (typically
/// default_parameters() plus overrides).  N_pair is bound internally
/// from the configuration.  The single-instance configuration
/// (as_instances == 1) is handled via single_instance_model() with no
/// HADB tier, matching Table 3 row 1.
[[nodiscard]] JsasResult solve_jsas(const JsasConfig& config,
                                    const expr::ParameterSet& params);

/// Batch-friendly overload: solves through a caller-owned per-worker
/// SolveCache (reusable factorisation scratch) and a process-wide
/// cache of the symbolic model structure, so the expression
/// re-parsing and solver allocations drop out of per-sample cost.
/// Bit-identical to the plain overload (oracle-gated).
[[nodiscard]] JsasResult solve_jsas(const JsasConfig& config,
                                    const expr::ParameterSet& params,
                                    ctmc::SolveCache& cache);

}  // namespace rascal::models
