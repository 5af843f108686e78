// Named model parameters.  A ParameterSet binds the symbols appearing
// in rate expressions (e.g. "La_hadb", "FIR") to numeric values; the
// analysis layer perturbs these bindings for parametric sweeps and
// uncertainty sampling without touching model structure.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

namespace rascal::expr {

/// Thrown when an expression references a parameter that has no
/// binding.
class UnknownParameterError : public std::runtime_error {
 public:
  explicit UnknownParameterError(const std::string& name)
      : std::runtime_error("unknown parameter: " + name), name_(name) {}
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

class ParameterSet {
 public:
  ParameterSet() = default;
  ParameterSet(std::initializer_list<std::pair<const std::string, double>> init)
      : values_(init) {}

  /// Sets or overwrites a binding; returns *this for chaining.
  ParameterSet& set(const std::string& name, double value);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Throws UnknownParameterError when absent.
  [[nodiscard]] double get(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// New set with `overrides` applied on top of *this.
  [[nodiscard]] ParameterSet with(const ParameterSet& overrides) const;

  [[nodiscard]] auto begin() const noexcept { return values_.begin(); }
  [[nodiscard]] auto end() const noexcept { return values_.end(); }

  bool operator==(const ParameterSet&) const = default;

 private:
  std::map<std::string, double> values_;
};

}  // namespace rascal::expr
