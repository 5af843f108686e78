#include "models/jsas_system.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/units.h"
#include "ctmc/steady_state.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "models/single_instance.h"

namespace rascal::models {

std::string JsasConfig::name() const {
  return std::to_string(as_instances) + " AS / " +
         std::to_string(hadb_pairs) + " HADB pairs / " +
         std::to_string(hadb_spares) + " spares";
}

namespace {

ctmc::SymbolicCtmc jsas_root_model() {
  ctmc::SymbolicCtmc root;
  root.state("Ok", 1.0);
  root.state("AS_Fail", 0.0);
  root.state("HADB_Fail", 0.0);
  root.rate("Ok", "AS_Fail", "La_appl");
  root.rate("AS_Fail", "Ok", "Mu_appl");
  // Any of the N_pair pairs going down loses a fragment of the
  // session table, so pair failures aggregate linearly.
  root.rate("Ok", "HADB_Fail", "N_pair*La_hadb_pair");
  root.rate("HADB_Fail", "Ok", "Mu_hadb_pair");
  return root;
}

// Building a symbolic model re-parses every rate expression, which
// dominates per-sample cost in batch drivers (the structure depends
// only on the configuration, not the parameter values).  These caches
// hand out shared immutable structures instead; SymbolicCtmc::bind and
// HierarchicalModel::solve are const and safe to run concurrently.
const ctmc::SymbolicCtmc& cached_jsas_root() {
  static const ctmc::SymbolicCtmc root = jsas_root_model();
  return root;
}

const core::HierarchicalModel& cached_jsas_model(const JsasConfig& config) {
  static std::mutex mutex;
  // hadb_spares is informational and does not change the structure.
  static std::map<std::pair<std::size_t, std::size_t>,
                  core::HierarchicalModel>
      cache;
  const std::scoped_lock lock(mutex);
  const auto key = std::make_pair(config.as_instances, config.hadb_pairs);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, jsas_model(config)).first;
  }
  return it->second;
}

const ctmc::SymbolicCtmc& cached_single_instance_model() {
  static const ctmc::SymbolicCtmc model = single_instance_model();
  return model;
}

}  // namespace

core::HierarchicalModel jsas_model(const JsasConfig& config) {
  if (config.as_instances < 2) {
    throw std::invalid_argument(
        "jsas_model: requires at least 2 AS instances (the single "
        "instance case has no failover hierarchy; see solve_jsas)");
  }
  if (config.hadb_pairs < 1) {
    throw std::invalid_argument("jsas_model: requires at least 1 HADB pair");
  }

  core::HierarchicalModel model;
  model.add_submodel(
      {"Appl Server",
       config.as_instances == 2
           ? app_server_two_instance_model()
           : app_server_n_instance_model(config.as_instances),
       {{"La_appl", core::ExportKind::kLambdaEq},
        {"Mu_appl", core::ExportKind::kMuEq}},
       core::kDefaultUpThreshold});
  model.add_submodel({"HADB Node Pair",
                      hadb_pair_model(),
                      {{"La_hadb_pair", core::ExportKind::kLambdaEq},
                       {"Mu_hadb_pair", core::ExportKind::kMuEq}},
                      core::kDefaultUpThreshold});
  model.set_root(jsas_root_model());
  return model;
}

JsasResult solve_jsas(const JsasConfig& config,
                      const expr::ParameterSet& params) {
  ctmc::SolveCache cache;
  return solve_jsas(config, params, cache);
}

JsasResult solve_jsas(const JsasConfig& config,
                      const expr::ParameterSet& params,
                      ctmc::SolveCache& cache) {
  JsasResult result;

  if (config.as_instances == 1) {
    // Table 3 row 1: one instance, no failover, no HADB tier modeled.
    const ctmc::Ctmc chain = cached_single_instance_model().bind(params);
    const ctmc::SteadyState& steady = cache.steady_state(chain);
    const core::AvailabilityMetrics m =
        core::availability_metrics(chain, steady);
    result.availability = m.availability;
    result.downtime_minutes_per_year = m.downtime_minutes_per_year;
    result.downtime_as_minutes = m.downtime_minutes_per_year;
    result.downtime_hadb_minutes = 0.0;
    result.mtbf_hours = m.mtbf_hours;
    return result;
  }

  const core::HierarchicalModel& model = cached_jsas_model(config);
  expr::ParameterSet bound = params;
  bound.set("N_pair", static_cast<double>(config.hadb_pairs));
  core::HierarchicalResult hr = model.solve(bound, &cache);

  result.availability = hr.system.availability;
  result.downtime_minutes_per_year = hr.system.downtime_minutes_per_year;
  result.mtbf_hours = hr.system.mtbf_hours;

  // Attribute downtime to the submodel whose failure state the root
  // chain is occupying.  A bound chain keeps its symbolic model's state
  // ids, so the root's ids need no second bind.
  const ctmc::SymbolicCtmc& root = cached_jsas_root();
  result.downtime_as_minutes = core::downtime_minutes_per_year(
      hr.root_steady.probability(root.id_of("AS_Fail")));
  result.downtime_hadb_minutes = core::downtime_minutes_per_year(
      hr.root_steady.probability(root.id_of("HADB_Fail")));

  result.detail = std::move(hr);
  return result;
}

}  // namespace rascal::models
