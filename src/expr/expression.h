// Parsed rate expression with value semantics.
//
//   auto e = Expression::parse("2*La_hadb*(1-FIR)");
//   double rate = e.evaluate(params);
//
// Copies share the immutable AST, so Expressions are cheap to store in
// model transition tables.
#pragma once

#include <set>
#include <string>

#include "expr/ast.h"
#include "expr/parameter_set.h"
#include "expr/program.h"

namespace rascal::expr {

class Expression {
 public:
  /// Parses `source`; throws ParseError on malformed input and
  /// std::invalid_argument for unknown functions / wrong arity.
  [[nodiscard]] static Expression parse(const std::string& source);

  /// Evaluates against parameter bindings; throws
  /// UnknownParameterError for unbound variables.
  [[nodiscard]] double evaluate(const ParameterSet& params) const;

  /// All variable names referenced by the expression.
  [[nodiscard]] std::set<std::string> variables() const;

  /// Symbolic partial derivative d(this)/d(variable), lightly
  /// simplified.  Throws std::domain_error when the expression uses
  /// abs/min/max of the variable (not differentiable).
  [[nodiscard]] Expression derivative(const std::string& variable) const;

  /// Original source text.
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

 private:
  friend class ProgramSet::Builder;  // compiles root_

  Expression(NodePtr root, std::string source);

  NodePtr root_;
  std::string source_;
};

}  // namespace rascal::expr
