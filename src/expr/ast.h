// Abstract syntax tree for rate expressions.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "expr/parameter_set.h"
#include "expr/program.h"

namespace rascal::expr {

/// Immutable AST node.  Nodes are shared between copies of an
/// Expression, hence shared_ptr<const Node>.
class Node;
using NodePtr = std::shared_ptr<const Node>;

class Node {
 public:
  virtual ~Node() = default;
  [[nodiscard]] virtual double evaluate(const ParameterSet& params) const = 0;
  virtual void collect_variables(std::set<std::string>& out) const = 0;
  [[nodiscard]] virtual std::string to_string() const = 0;
  /// Symbolic partial derivative with respect to `variable`.  Throws
  /// std::domain_error for non-differentiable operations (abs, min,
  /// max) whose argument depends on the variable.
  [[nodiscard]] virtual NodePtr differentiate(
      const std::string& variable) const = 0;
  /// Appends this subtree's postfix code (program.h): operands first,
  /// left to right, then the operation.
  virtual void emit(ProgramSet::Builder& out) const = 0;
};

class NumberNode final : public Node {
 public:
  explicit NumberNode(double value) : value_(value) {}
  [[nodiscard]] double evaluate(const ParameterSet&) const override {
    return value_;
  }
  void collect_variables(std::set<std::string>&) const override {}
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] NodePtr differentiate(const std::string&) const override;
  void emit(ProgramSet::Builder& out) const override {
    out.emit(OpCode::kConstant, value_);
  }

 private:
  double value_;
};

class VariableNode final : public Node {
 public:
  explicit VariableNode(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] double evaluate(const ParameterSet& params) const override {
    return params.get(name_);
  }
  void collect_variables(std::set<std::string>& out) const override {
    out.insert(name_);
  }
  [[nodiscard]] std::string to_string() const override { return name_; }
  [[nodiscard]] NodePtr differentiate(
      const std::string& variable) const override;
  void emit(ProgramSet::Builder& out) const override {
    out.emit_variable(name_);
  }

 private:
  std::string name_;
};

enum class BinaryOp { kAdd, kSubtract, kMultiply, kDivide, kPower };

class BinaryNode final : public Node {
 public:
  BinaryNode(BinaryOp op, NodePtr lhs, NodePtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  [[nodiscard]] double evaluate(const ParameterSet& params) const override;
  void collect_variables(std::set<std::string>& out) const override {
    lhs_->collect_variables(out);
    rhs_->collect_variables(out);
  }
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] NodePtr differentiate(
      const std::string& variable) const override;
  void emit(ProgramSet::Builder& out) const override;

 private:
  BinaryOp op_;
  NodePtr lhs_;
  NodePtr rhs_;
};

class NegateNode final : public Node {
 public:
  explicit NegateNode(NodePtr operand) : operand_(std::move(operand)) {}
  [[nodiscard]] double evaluate(const ParameterSet& params) const override {
    return -operand_->evaluate(params);
  }
  void collect_variables(std::set<std::string>& out) const override {
    operand_->collect_variables(out);
  }
  [[nodiscard]] std::string to_string() const override {
    return "(-" + operand_->to_string() + ")";
  }
  [[nodiscard]] NodePtr differentiate(
      const std::string& variable) const override;
  void emit(ProgramSet::Builder& out) const override {
    operand_->emit(out);
    out.emit(OpCode::kNegate);
  }

 private:
  NodePtr operand_;
};

/// Built-in functions: exp, log, sqrt, abs, min, max, pow.
class CallNode final : public Node {
 public:
  CallNode(std::string function, std::vector<NodePtr> args);
  [[nodiscard]] double evaluate(const ParameterSet& params) const override;
  void collect_variables(std::set<std::string>& out) const override {
    for (const NodePtr& a : args_) a->collect_variables(out);
  }
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] NodePtr differentiate(
      const std::string& variable) const override;
  void emit(ProgramSet::Builder& out) const override;

  /// True when `name` is a known builtin.
  [[nodiscard]] static bool is_builtin(const std::string& name);
  /// Arity of a builtin; throws std::invalid_argument when unknown.
  [[nodiscard]] static std::size_t builtin_arity(const std::string& name);

 private:
  std::string function_;
  std::vector<NodePtr> args_;
};

}  // namespace rascal::expr
