// Second opinions that oracle tests compare a production path against,
// one function each:
//   - lump: the quotient chain of an ordinarily lumpable partition, so
//     the lumping tests can solve Figure 3 from its node-explicit twin
//     (production keeps the lumpability check and the coarsest
//     partition that `rascal_cli lump` prints);
//   - finite_difference_sensitivities: central differences, the check
//     on analysis::steady_state_sensitivity's exact derivatives;
//   - clopper_pearson: the two-sided beta-quantile interval, the check
//     on the F-distribution form of the paper's Eq. (1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/parametric.h"
#include "ctmc/lumping.h"
#include "expr/parameter_set.h"

namespace rascal::check {

/// Builds the quotient chain.  Block rewards must be uniform within
/// each block (throws std::invalid_argument otherwise); block names
/// default to the name of the block's first state prefixed with
/// "lump:".  Throws std::invalid_argument when not lumpable.
[[nodiscard]] ctmc::Ctmc lump(const ctmc::Ctmc& chain,
                              const ctmc::Partition& partition,
                              const std::vector<std::string>& block_names = {},
                              double tolerance = 1e-9);

struct Sensitivity {
  std::string parameter;
  double derivative = 0.0;  // d(metric)/d(parameter), central difference
  double elasticity = 0.0;  // (x / y) * dy/dx, scale-free
};

/// Central-difference sensitivities for each named parameter around
/// `base`.  `relative_step` scales the perturbation per parameter
/// (|x| * step, or step when x == 0).  `threads` workers evaluate the
/// per-parameter stencils (0 = automatic); results are index-ordered,
/// so any thread count returns identical sensitivities.  threads != 1
/// requires `model` to be safe to call concurrently.
[[nodiscard]] std::vector<Sensitivity> finite_difference_sensitivities(
    const analysis::ModelFunction& model, const expr::ParameterSet& base,
    const std::vector<std::string>& parameters, double relative_step = 1e-4,
    std::size_t threads = 1);

/// Exact Clopper-Pearson interval for a binomial proportion (both
/// endpoints), using the beta-quantile form.  Returned as
/// {lower, upper}; degenerate cases (s=0, s=n) handled per convention.
/// Throws std::invalid_argument for s > n or confidence outside (0, 1).
struct ProportionInterval {
  double lower = 0.0;
  double upper = 1.0;
};
[[nodiscard]] ProportionInterval clopper_pearson(std::uint64_t trials,
                                                 std::uint64_t successes,
                                                 double confidence);

}  // namespace rascal::check
