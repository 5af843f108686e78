// Hierarchical Markov reward models, RAScad style (paper Section 6).
//
// A HierarchicalModel is an ordered list of symbolic submodels topped
// by a root model.  Each submodel is solved against the current
// parameter bindings and *exports* derived quantities (its equivalent
// failure rate, recovery rate, availability, ...) as new parameters
// visible to later submodels and the root.  This is exactly how the
// paper's Figure 2 references "$Lambda1/$Mu1" evaluated from the
// "Appl Server" and "HADB Node Pair" subdiagrams.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "ctmc/builder.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "expr/parameter_set.h"

namespace rascal::core {

/// Quantity a submodel can export into the parent's parameter space.
enum class ExportKind {
  kLambdaEq,          // equivalent failure rate (per hour)
  kMuEq,              // equivalent recovery rate (per hour)
  kAvailability,      // steady-state availability
  kUnavailability,    // 1 - availability
  kFailureFrequency,  // failures per hour
};

struct Export {
  std::string parameter_name;  // name bound in the parent scope
  ExportKind kind = ExportKind::kLambdaEq;
};

struct Submodel {
  std::string name;
  ctmc::SymbolicCtmc model;
  std::vector<Export> exports;
  double up_threshold = kDefaultUpThreshold;
};

struct SubmodelResult {
  std::string name;
  AvailabilityMetrics metrics;
  TwoStateEquivalent equivalent;
  ctmc::SteadyState steady;
};

struct HierarchicalResult {
  std::vector<SubmodelResult> submodels;
  AvailabilityMetrics system;          // metrics of the root model
  ctmc::SteadyState root_steady;
  expr::ParameterSet effective_params;  // inputs + all exports
};

class HierarchicalModel {
 public:
  /// Appends a submodel; submodels are solved in insertion order, so a
  /// later submodel may reference parameters exported by an earlier
  /// one.  Throws std::invalid_argument on duplicate submodel names or
  /// duplicate export parameter names.
  HierarchicalModel& add_submodel(Submodel submodel);

  /// Sets the root (system-level) model.
  HierarchicalModel& set_root(ctmc::SymbolicCtmc root,
                              double up_threshold = kDefaultUpThreshold);

  /// Solves the hierarchy bottom-up with the given input parameters,
  /// each submodel and the root by GTH.  Throws
  /// expr::UnknownParameterError when a referenced parameter is
  /// neither an input nor an earlier export, and std::logic_error when
  /// no root model has been set.
  ///
  /// An optional per-worker SolveCache supplies reusable solver
  /// scratch; results are bit-identical with and without one
  /// (oracle-gated).
  [[nodiscard]] HierarchicalResult solve(
      const expr::ParameterSet& inputs,
      ctmc::SolveCache* cache = nullptr) const;

  [[nodiscard]] std::size_t num_submodels() const noexcept {
    return submodels_.size();
  }

 private:
  std::vector<Submodel> submodels_;
  ctmc::SymbolicCtmc root_;
  double root_up_threshold_ = kDefaultUpThreshold;
  bool has_root_ = false;
};

}  // namespace rascal::core
