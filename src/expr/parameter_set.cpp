#include "expr/parameter_set.h"

namespace rascal::expr {

ParameterSet& ParameterSet::set(const std::string& name, double value) {
  values_[name] = value;
  return *this;
}

bool ParameterSet::contains(const std::string& name) const {
  return values_.count(name) != 0;
}

double ParameterSet::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw UnknownParameterError(name);
  return it->second;
}

ParameterSet ParameterSet::with(const ParameterSet& overrides) const {
  ParameterSet merged = *this;
  for (const auto& [name, value] : overrides) merged.set(name, value);
  return merged;
}

}  // namespace rascal::expr
