// Parametric (sensitivity-sweep) analysis: re-evaluate a model metric
// while one parameter walks a range — the RAScad capability behind
// Figures 5 and 6 of the paper.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ctmc/solve_cache.h"
#include "expr/parameter_set.h"

namespace rascal::analysis {

/// A scalar model output as a function of parameter bindings, e.g.
/// "system availability of Config 1" or "yearly downtime of Config 2".
using ModelFunction = std::function<double(const expr::ParameterSet&)>;

/// Context-aware model: additionally receives a worker-local
/// SolveCache, letting the hot path reuse factorisation scratch across
/// a whole batch instead of allocating per evaluation.  The cache
/// never changes results (oracle-gated), so a context model must
/// return the same bits as its plain counterpart.
using ContextModelFunction =
    std::function<double(const expr::ParameterSet&, ctmc::SolveCache&)>;

/// `count` evenly spaced values covering [lo, hi] inclusive.
/// count >= 2; throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t count);

struct SweepPoint {
  double parameter_value = 0.0;
  double metric = 0.0;
};

/// Evaluates `model` at `base` with `parameter` overridden by each of
/// `values`, in order.  `threads` workers evaluate the points (0 =
/// automatic: RASCAL_THREADS env, else hardware_concurrency); results
/// are index-ordered so every thread count returns identical points.
/// threads != 1 requires `model` to be safe to call concurrently.
[[nodiscard]] std::vector<SweepPoint> parametric_sweep(
    const ModelFunction& model, const expr::ParameterSet& base,
    const std::string& parameter, const std::vector<double>& values,
    std::size_t threads = 1);

/// Context-aware overload: each worker evaluates its points through
/// its own SolveCache and a parameter set copied once per chunk, so a
/// sweep performs O(workers) instead of O(points) solver allocations.
/// Point values are bit-identical to the plain overload.
[[nodiscard]] std::vector<SweepPoint> parametric_sweep(
    const ContextModelFunction& model, const expr::ParameterSet& base,
    const std::string& parameter, const std::vector<double>& values,
    std::size_t threads = 1);

}  // namespace rascal::analysis
