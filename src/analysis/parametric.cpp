#include "analysis/parametric.h"

#include <stdexcept>

#include "core/parallel.h"

namespace rascal::analysis {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  if (count < 2) {
    throw std::invalid_argument("linspace: count must be >= 2");
  }
  std::vector<double> out(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + static_cast<double>(i) * step;
  }
  out.back() = hi;  // avoid accumulated round-off at the endpoint
  return out;
}

std::vector<SweepPoint> parametric_sweep(const ContextModelFunction& model,
                                         const expr::ParameterSet& base,
                                         const std::string& parameter,
                                         const std::vector<double>& values,
                                         std::size_t threads) {
  std::vector<SweepPoint> out(values.size());
  core::parallel_for(values.size(), core::resolve_threads(threads),
                     [&](std::size_t begin, std::size_t end) {
                       // Chunk-local = worker-local: the cache and the
                       // parameter set are copied once per chunk, and
                       // each point only rebinds the swept parameter.
                       ctmc::SolveCache cache;
                       expr::ParameterSet params = base;
                       for (std::size_t i = begin; i < end; ++i) {
                         params.set(parameter, values[i]);
                         out[i] = {values[i], model(params, cache)};
                       }
                     });
  return out;
}

}  // namespace rascal::analysis
