// Builders for CTMCs.
//
// CtmcBuilder assembles a chain from numeric rates.  SymbolicCtmc
// holds rates as parameter expressions (the strings printed in the
// paper's model figures) and is bound against a ParameterSet to
// produce a concrete Ctmc — the mechanism that lets one model
// definition serve parametric sweeps and uncertainty sampling.
//
// A SymbolicCtmc compiles itself on its first bind: each distinct
// rate expression becomes a postfix program (expr/program.h), the
// transitions are sorted and merged into a fixed pattern, and the
// steady-state structure check runs once on that pattern.  A bind
// then only evaluates the programs and sums each merged transition's
// rates.  Draws the compiled form cannot reproduce bit for bit (a
// rate of exactly zero drops a transition and so changes the
// pattern) or that must throw take the original evaluate-and-
// construct path (bind_reference), which decides the result or the
// exception.  The first bind compiles under a once-guard, so threads
// may share one model from the start.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ctmc/ctmc.h"
#include "expr/expression.h"
#include "expr/parameter_set.h"

namespace rascal::ctmc {

class CtmcBuilder {
 public:
  /// Declares a state; returns its id.  Duplicate names are rejected
  /// at build() time by Ctmc validation.
  StateId state(std::string name, double reward);

  /// Adds a transition.  Zero rates are silently dropped (convenient
  /// when a rate formula can legitimately vanish, e.g. FIR = 0);
  /// negative rates are rejected by build().
  CtmcBuilder& rate(StateId from, StateId to, double value);

  [[nodiscard]] std::size_t num_states() const noexcept {
    return states_.size();
  }

  /// Validates and constructs the chain.
  [[nodiscard]] Ctmc build() const;

 private:
  std::vector<State> states_;
  std::vector<Transition> transitions_;
};

/// A CTMC whose transition rates are unevaluated expressions.
class SymbolicCtmc {
 public:
  struct SymbolicTransition {
    StateId from = 0;
    StateId to = 0;
    expr::Expression rate;
  };

  SymbolicCtmc() = default;
  /// A copy compiles itself again on its first bind: a compiled form
  /// belongs to one model object, so changing a model never races with
  /// a bind of another.
  SymbolicCtmc(const SymbolicCtmc& other)
      : states_(other.states_),
        transitions_(other.transitions_),
        ids_(other.ids_) {}
  SymbolicCtmc& operator=(const SymbolicCtmc& other) {
    if (this != &other) *this = SymbolicCtmc(other);
    return *this;
  }
  SymbolicCtmc(SymbolicCtmc&& other) noexcept = default;
  SymbolicCtmc& operator=(SymbolicCtmc&& other) noexcept = default;
  ~SymbolicCtmc() = default;

  StateId state(std::string name, double reward);

  /// Adds a transition with a rate expression, e.g.
  /// rate("Ok", "RestartShort", "2*La_hadb*(1-FIR)").
  SymbolicCtmc& rate(const std::string& from, const std::string& to,
                     const std::string& expression);
  SymbolicCtmc& rate(const std::string& from, const std::string& to,
                     expr::Expression expression);

  /// Id of the state named `name` (the first, if several share it),
  /// by hash lookup.
  [[nodiscard]] std::optional<StateId> find_state(
      const std::string& name) const;
  /// As find_state but throws std::invalid_argument when absent.
  [[nodiscard]] StateId id_of(const std::string& name) const;

  /// Union of variables over all rate expressions.
  [[nodiscard]] std::set<std::string> parameters() const;

  /// Evaluates every rate against `params` and builds the chain.
  /// Expressions evaluating to exactly zero are dropped; negative or
  /// non-finite values raise std::invalid_argument naming the
  /// offending transition.  Safe to call concurrently on one model.
  [[nodiscard]] Ctmc bind(const expr::ParameterSet& params) const;

  /// bind() without the compiled form: evaluates every rate expression
  /// through its AST and hands the rates to the public Ctmc
  /// constructor.  bind() falls back to it; a one-off evaluation (the
  /// linter's) uses it so as not to compile the model.  Same result,
  /// same exceptions.
  [[nodiscard]] Ctmc bind_reference(const expr::ParameterSet& params) const;

  [[nodiscard]] std::size_t num_states() const noexcept {
    return states_.size();
  }
  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return states_;
  }
  [[nodiscard]] const std::vector<SymbolicTransition>& transitions()
      const noexcept {
    return transitions_;
  }

 private:
  struct Compiled;     // builder.cpp
  struct CompileOnce;  // a Compiled and the once-guard that builds it
  // Deleted in builder.cpp, where CompileOnce is complete.
  using CompileOncePtr = std::unique_ptr<CompileOnce, void (*)(CompileOnce*)>;
  [[nodiscard]] static CompileOncePtr fresh_compiled();

  [[nodiscard]] const Compiled& compiled() const;
  // Called by state() and rate(): the next bind compiles again.
  void changed();

  std::vector<State> states_;
  std::vector<SymbolicTransition> transitions_;
  std::unordered_map<std::string, StateId> ids_;
  CompileOncePtr compiled_ = fresh_compiled();  // null when moved from
};

}  // namespace rascal::ctmc
