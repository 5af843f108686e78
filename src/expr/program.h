// Rate expressions compiled to flat postfix programs.
//
// Binding a model evaluates the same few expressions at every sampled
// parameter point.  A ProgramSet turns each distinct expression into
// one postfix instruction sequence over dense parameter slots, so an
// evaluation reads every parameter once and walks no tree:
//
//   ProgramSet::Builder builder;
//   const std::uint32_t p = builder.add(Expression::parse("2*La*(1-C)"));
//   const ProgramSet programs = std::move(builder).finish();
//   // slot values in programs.slots() order, then programs.evaluate(...)
//
// A program performs the same operations in the same order as
// Expression::evaluate, so its value has the same bits.  It does not
// reproduce the AST's exceptions: where the AST would throw,
// evaluate() reports failure and the caller re-evaluates through the
// AST to raise the exception.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace rascal::expr {

class Expression;
class Node;

enum class OpCode : std::uint8_t {
  kConstant,  // push `constant`
  kSlot,      // push the value of parameter slot `slot`
  kNegate,
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kPower,  // both '^' and pow()
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kMin,
  kMax,
};

struct Instruction {
  double constant = 0.0;
  std::uint32_t slot = 0;
  OpCode op = OpCode::kConstant;
};

class ProgramSet {
 public:
  class Builder;

  /// Parameter names the programs read, one per slot, in ascending
  /// std::string order (the order a ParameterSet iterates in).
  [[nodiscard]] const std::vector<std::string>& slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return begin_.empty() ? 0 : begin_.size() - 1;
  }
  /// Stack depth evaluate() needs.
  [[nodiscard]] std::size_t max_stack() const noexcept { return max_stack_; }

  /// Runs every program on `slot_values` (one per slot) and writes
  /// program p's value to values[p], using `stack` (max_stack() long)
  /// as scratch.  Returns false when a program divides by zero, takes
  /// the log of a non-positive value or the square root of a negative
  /// one: the operations Expression::evaluate throws on.
  [[nodiscard]] bool evaluate(std::span<const double> slot_values,
                              std::span<double> values,
                              std::span<double> stack) const;

 private:
  std::vector<Instruction> code_;
  // Program p is code_[begin_[p], begin_[p + 1]); empty when size() is 0.
  std::vector<std::uint32_t> begin_;
  std::vector<std::string> slots_;
  std::size_t max_stack_ = 0;
};

class ProgramSet::Builder {
 public:
  /// Index of the program that evaluates `expression`.  Expressions
  /// that share an AST, or whose code is equal, share one program.
  std::uint32_t add(const Expression& expression);

  /// The programs added so far, with their slots renumbered in name
  /// order.
  [[nodiscard]] ProgramSet finish() &&;

  /// Append one instruction of the program being compiled; a variable
  /// gets its parameter's slot.  Called by Node::emit.
  void emit(OpCode op, double constant = 0.0);
  void emit_variable(const std::string& name);

 private:
  ProgramSet set_;
  std::vector<Instruction> code_;  // the program being compiled
  std::unordered_map<std::string, std::uint32_t> slot_of_;
  std::unordered_map<const Node*, std::uint32_t> by_root_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_code_;  // code hash
};

}  // namespace rascal::expr
