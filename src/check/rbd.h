// Reliability block diagrams (RBD): the closed-form availability of
// series, parallel and k-of-n structures of independent repairable
// (lambda, mu) units (SHARPE lineage).
//
// RBDs are the static approximation of the paper's Markov models:
// they cannot express workload acceleration, imperfect recovery, or
// shared manual restores.  Where the units really are independent (a
// k-of-n AS tier with one repair crew per node) the algebra is exact,
// and the oracle tests use it as the closed-form reference for the
// production chain.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace rascal::check {

class Block;
using BlockPtr = std::shared_ptr<const Block>;

class Block {
 public:
  virtual ~Block() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  /// Steady-state availability under component independence.
  [[nodiscard]] virtual double availability() const = 0;
};

/// Repairable component with exponential failure/repair.
/// Throws std::invalid_argument for non-positive rates.
[[nodiscard]] BlockPtr component(std::string name, double failure_rate,
                                 double repair_rate);

/// Up iff every child is up.  Throws std::invalid_argument when empty.
[[nodiscard]] BlockPtr series(std::string name,
                              std::vector<BlockPtr> children);

/// Up iff at least one child is up.
[[nodiscard]] BlockPtr parallel(std::string name,
                                std::vector<BlockPtr> children);

/// Up iff at least k children are up (1 <= k <= n).
[[nodiscard]] BlockPtr k_of_n(std::string name, std::size_t k,
                              std::vector<BlockPtr> children);

}  // namespace rascal::check
