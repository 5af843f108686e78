#include "core/hierarchy.h"

#include <set>
#include <stdexcept>

namespace rascal::core {

HierarchicalModel& HierarchicalModel::add_submodel(Submodel submodel) {
  std::set<std::string> export_names;
  for (const Submodel& existing : submodels_) {
    if (existing.name == submodel.name) {
      throw std::invalid_argument("HierarchicalModel: duplicate submodel '" +
                                  submodel.name + "'");
    }
    for (const Export& e : existing.exports) {
      export_names.insert(e.parameter_name);
    }
  }
  for (const Export& e : submodel.exports) {
    if (!export_names.insert(e.parameter_name).second) {
      throw std::invalid_argument(
          "HierarchicalModel: duplicate export parameter '" +
          e.parameter_name + "'");
    }
  }
  submodels_.push_back(std::move(submodel));
  return *this;
}

HierarchicalModel& HierarchicalModel::set_root(ctmc::SymbolicCtmc root,
                                               double up_threshold) {
  root_ = std::move(root);
  root_up_threshold_ = up_threshold;
  has_root_ = true;
  return *this;
}

HierarchicalResult HierarchicalModel::solve(const expr::ParameterSet& inputs,
                                            ctmc::SolveCache* cache) const {
  if (!has_root_) {
    throw std::logic_error("HierarchicalModel::solve: no root model set");
  }
  HierarchicalResult result;
  expr::ParameterSet params = inputs;

  const auto solve_chain = [&](const ctmc::Ctmc& chain) {
    return cache != nullptr ? cache->steady_state(chain)
                            : ctmc::solve_steady_state(chain);
  };

  for (const Submodel& sub : submodels_) {
    const ctmc::Ctmc chain = sub.model.bind(params);
    ctmc::SteadyState steady = solve_chain(chain);
    SubmodelResult sr;
    sr.name = sub.name;
    sr.metrics = availability_metrics(chain, steady, sub.up_threshold);
    sr.equivalent = two_state_equivalent(chain, steady, sub.up_threshold);
    sr.steady = std::move(steady);

    for (const Export& e : sub.exports) {
      double value = 0.0;
      switch (e.kind) {
        case ExportKind::kLambdaEq: value = sr.equivalent.lambda_eq; break;
        case ExportKind::kMuEq: value = sr.equivalent.mu_eq; break;
        case ExportKind::kAvailability:
          value = sr.metrics.availability;
          break;
        case ExportKind::kUnavailability:
          value = sr.metrics.unavailability;
          break;
        case ExportKind::kFailureFrequency:
          value = sr.metrics.failure_frequency;
          break;
      }
      params.set(e.parameter_name, value);
    }
    result.submodels.push_back(std::move(sr));
  }

  const ctmc::Ctmc root_chain = root_.bind(params);
  result.root_steady = solve_chain(root_chain);
  result.system = availability_metrics(root_chain, result.root_steady,
                                       root_up_threshold_);
  result.effective_params = std::move(params);
  return result;
}

}  // namespace rascal::core
