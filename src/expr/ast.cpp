#include "expr/ast.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rascal::expr {

std::string NumberNode::to_string() const {
  std::ostringstream os;
  os << value_;
  return os.str();
}

namespace {

// ---- light simplification used by the symbolic derivative ----------

bool is_constant(const NodePtr& node, double value) {
  const auto* number = dynamic_cast<const NumberNode*>(node.get());
  if (number == nullptr) return false;
  static const ParameterSet kEmpty;
  return number->evaluate(kEmpty) == value;
}

NodePtr constant(double value) {
  return std::make_shared<NumberNode>(value);
}

NodePtr sum(NodePtr a, NodePtr b) {
  if (is_constant(a, 0.0)) return b;
  if (is_constant(b, 0.0)) return a;
  return std::make_shared<BinaryNode>(BinaryOp::kAdd, std::move(a),
                                      std::move(b));
}

NodePtr difference(NodePtr a, NodePtr b) {
  if (is_constant(b, 0.0)) return a;
  if (is_constant(a, 0.0)) {
    return std::make_shared<NegateNode>(std::move(b));
  }
  return std::make_shared<BinaryNode>(BinaryOp::kSubtract, std::move(a),
                                      std::move(b));
}

NodePtr product(NodePtr a, NodePtr b) {
  if (is_constant(a, 0.0) || is_constant(b, 0.0)) return constant(0.0);
  if (is_constant(a, 1.0)) return b;
  if (is_constant(b, 1.0)) return a;
  return std::make_shared<BinaryNode>(BinaryOp::kMultiply, std::move(a),
                                      std::move(b));
}

NodePtr quotient(NodePtr a, NodePtr b) {
  if (is_constant(a, 0.0)) return constant(0.0);
  if (is_constant(b, 1.0)) return a;
  return std::make_shared<BinaryNode>(BinaryOp::kDivide, std::move(a),
                                      std::move(b));
}

NodePtr power(NodePtr base, NodePtr exponent) {
  if (is_constant(exponent, 1.0)) return base;
  if (is_constant(exponent, 0.0)) return constant(1.0);
  return std::make_shared<BinaryNode>(BinaryOp::kPower, std::move(base),
                                      std::move(exponent));
}

bool depends_on(const Node& node, const std::string& variable) {
  std::set<std::string> vars;
  node.collect_variables(vars);
  return vars.count(variable) != 0;
}

}  // namespace

NodePtr NumberNode::differentiate(const std::string&) const {
  return constant(0.0);
}

NodePtr VariableNode::differentiate(const std::string& variable) const {
  return constant(name_ == variable ? 1.0 : 0.0);
}

NodePtr NegateNode::differentiate(const std::string& variable) const {
  return std::make_shared<NegateNode>(operand_->differentiate(variable));
}

NodePtr BinaryNode::differentiate(const std::string& variable) const {
  NodePtr du = lhs_->differentiate(variable);
  NodePtr dv = rhs_->differentiate(variable);
  switch (op_) {
    case BinaryOp::kAdd:
      return sum(std::move(du), std::move(dv));
    case BinaryOp::kSubtract:
      return difference(std::move(du), std::move(dv));
    case BinaryOp::kMultiply:
      // (uv)' = u'v + uv'.
      return sum(product(std::move(du), rhs_),
                 product(lhs_, std::move(dv)));
    case BinaryOp::kDivide:
      // (u/v)' = (u'v - uv') / v^2.
      return quotient(
          difference(product(std::move(du), rhs_),
                     product(lhs_, std::move(dv))),
          product(rhs_, rhs_));
    case BinaryOp::kPower: {
      // General case: (u^v)' = u^v * (v' ln u + v u' / u); the two
      // common special cases keep the tree small.
      const bool base_depends = depends_on(*lhs_, variable);
      const bool exp_depends = depends_on(*rhs_, variable);
      if (!base_depends && !exp_depends) return constant(0.0);
      if (!exp_depends) {
        // v constant: v * u^(v-1) * u'.
        NodePtr v_minus_1 = difference(rhs_, constant(1.0));
        return product(product(rhs_, power(lhs_, std::move(v_minus_1))),
                       std::move(du));
      }
      NodePtr ln_u = std::make_shared<CallNode>(
          "log", std::vector<NodePtr>{lhs_});
      NodePtr term = sum(product(std::move(dv), std::move(ln_u)),
                         quotient(product(rhs_, std::move(du)), lhs_));
      return product(power(lhs_, rhs_), std::move(term));
    }
  }
  throw std::logic_error("BinaryNode::differentiate: unreachable");
}

NodePtr CallNode::differentiate(const std::string& variable) const {
  const auto chain = [&](NodePtr outer_derivative) {
    return product(std::move(outer_derivative),
                   args_[0]->differentiate(variable));
  };
  if (function_ == "exp") {
    return chain(std::make_shared<CallNode>("exp", args_));
  }
  if (function_ == "log") {
    return chain(quotient(constant(1.0), args_[0]));
  }
  if (function_ == "sqrt") {
    NodePtr self = std::make_shared<CallNode>("sqrt", args_);
    return chain(quotient(constant(1.0),
                          product(constant(2.0), std::move(self))));
  }
  if (function_ == "pow") {
    return std::make_shared<BinaryNode>(BinaryOp::kPower, args_[0],
                                        args_[1])
        ->differentiate(variable);
  }
  // abs/min/max: only differentiable when independent of the variable.
  for (const NodePtr& arg : args_) {
    if (depends_on(*arg, variable)) {
      throw std::domain_error("expression: '" + function_ +
                              "' is not differentiable in '" + variable +
                              "'");
    }
  }
  return constant(0.0);
}

double BinaryNode::evaluate(const ParameterSet& params) const {
  const double a = lhs_->evaluate(params);
  const double b = rhs_->evaluate(params);
  switch (op_) {
    case BinaryOp::kAdd: return a + b;
    case BinaryOp::kSubtract: return a - b;
    case BinaryOp::kMultiply: return a * b;
    case BinaryOp::kDivide:
      if (b == 0.0) {
        throw std::domain_error("expression: division by zero in " +
                                to_string());
      }
      return a / b;
    case BinaryOp::kPower: return std::pow(a, b);
  }
  throw std::logic_error("BinaryNode: unreachable");
}

void BinaryNode::emit(ProgramSet::Builder& out) const {
  lhs_->emit(out);
  rhs_->emit(out);
  switch (op_) {
    case BinaryOp::kAdd: out.emit(OpCode::kAdd); return;
    case BinaryOp::kSubtract: out.emit(OpCode::kSubtract); return;
    case BinaryOp::kMultiply: out.emit(OpCode::kMultiply); return;
    case BinaryOp::kDivide: out.emit(OpCode::kDivide); return;
    case BinaryOp::kPower: out.emit(OpCode::kPower); return;
  }
  throw std::logic_error("BinaryNode::emit: unreachable");
}

std::string BinaryNode::to_string() const {
  const char* op = "?";
  switch (op_) {
    case BinaryOp::kAdd: op = "+"; break;
    case BinaryOp::kSubtract: op = "-"; break;
    case BinaryOp::kMultiply: op = "*"; break;
    case BinaryOp::kDivide: op = "/"; break;
    case BinaryOp::kPower: op = "^"; break;
  }
  return "(" + lhs_->to_string() + op + rhs_->to_string() + ")";
}

namespace {

struct Builtin {
  const char* name;
  std::size_t arity;
  OpCode op;
};

constexpr Builtin kBuiltins[] = {
    {"exp", 1, OpCode::kExp},   {"log", 1, OpCode::kLog},
    {"sqrt", 1, OpCode::kSqrt}, {"abs", 1, OpCode::kAbs},
    {"min", 2, OpCode::kMin},   {"max", 2, OpCode::kMax},
    {"pow", 2, OpCode::kPower},
};

}  // namespace

CallNode::CallNode(std::string function, std::vector<NodePtr> args)
    : function_(std::move(function)), args_(std::move(args)) {
  if (!is_builtin(function_)) {
    throw std::invalid_argument("expression: unknown function '" + function_ +
                                "'");
  }
  if (args_.size() != builtin_arity(function_)) {
    throw std::invalid_argument("expression: function '" + function_ +
                                "' expects " +
                                std::to_string(builtin_arity(function_)) +
                                " argument(s)");
  }
}

bool CallNode::is_builtin(const std::string& name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) return true;
  }
  return false;
}

std::size_t CallNode::builtin_arity(const std::string& name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) return b.arity;
  }
  throw std::invalid_argument("expression: unknown function '" + name + "'");
}

double CallNode::evaluate(const ParameterSet& params) const {
  const auto arg = [&](std::size_t i) { return args_[i]->evaluate(params); };
  if (function_ == "exp") return std::exp(arg(0));
  if (function_ == "log") {
    const double x = arg(0);
    if (!(x > 0.0)) {
      throw std::domain_error("expression: log of non-positive value");
    }
    return std::log(x);
  }
  if (function_ == "sqrt") {
    const double x = arg(0);
    if (x < 0.0) {
      throw std::domain_error("expression: sqrt of negative value");
    }
    return std::sqrt(x);
  }
  if (function_ == "abs") return std::abs(arg(0));
  if (function_ == "min") return std::min(arg(0), arg(1));
  if (function_ == "max") return std::max(arg(0), arg(1));
  if (function_ == "pow") return std::pow(arg(0), arg(1));
  throw std::logic_error("CallNode: unreachable");
}

void CallNode::emit(ProgramSet::Builder& out) const {
  for (const NodePtr& a : args_) a->emit(out);
  for (const Builtin& b : kBuiltins) {
    if (function_ == b.name) {
      out.emit(b.op);
      return;
    }
  }
  throw std::logic_error("CallNode::emit: unreachable");
}

std::string CallNode::to_string() const {
  std::string out = function_ + "(";
  for (std::size_t i = 0; i < args_.size(); ++i) {
    out += args_[i]->to_string();
    if (i + 1 < args_.size()) out += ",";
  }
  return out + ")";
}

}  // namespace rascal::expr
