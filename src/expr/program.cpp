#include "expr/program.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "expr/expression.h"

namespace rascal::expr {

namespace {

// Net stack effect of one instruction.
int stack_effect(OpCode op) {
  switch (op) {
    case OpCode::kConstant:
    case OpCode::kSlot:
      return 1;
    case OpCode::kNegate:
    case OpCode::kExp:
    case OpCode::kLog:
    case OpCode::kSqrt:
    case OpCode::kAbs:
      return 0;
    case OpCode::kAdd:
    case OpCode::kSubtract:
    case OpCode::kMultiply:
    case OpCode::kDivide:
    case OpCode::kPower:
    case OpCode::kMin:
    case OpCode::kMax:
      return -1;
  }
  throw std::logic_error("stack_effect: unreachable");
}

// FNV-1a over every field of every instruction, constants by bits.
std::uint64_t code_hash(const std::vector<Instruction>& code) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte, word >>= 8) {
      h = (h ^ (word & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const Instruction& i : code) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &i.constant, sizeof bits);
    mix(static_cast<std::uint64_t>(i.op) << 32 | i.slot);
    mix(bits);
  }
  return h;
}

bool same_code(const Instruction& a, const Instruction& b) {
  return a.op == b.op && a.slot == b.slot &&
         std::memcmp(&a.constant, &b.constant, sizeof a.constant) == 0;
}

}  // namespace

bool ProgramSet::evaluate(std::span<const double> slot_values,
                          std::span<double> values,
                          std::span<double> stack) const {
  for (std::size_t p = 0; p < size(); ++p) {
    std::size_t top = 0;  // stack[top - 1] is the top of the stack
    for (std::uint32_t k = begin_[p]; k < begin_[p + 1]; ++k) {
      const Instruction& i = code_[k];
      switch (i.op) {
        case OpCode::kConstant: stack[top++] = i.constant; continue;
        case OpCode::kSlot: stack[top++] = slot_values[i.slot]; continue;
        default: break;
      }
      double& a = stack[top - 1];
      switch (i.op) {
        case OpCode::kNegate: a = -a; continue;
        case OpCode::kExp: a = std::exp(a); continue;
        case OpCode::kLog:
          if (!(a > 0.0)) return false;
          a = std::log(a);
          continue;
        case OpCode::kSqrt:
          if (a < 0.0) return false;
          a = std::sqrt(a);
          continue;
        case OpCode::kAbs: a = std::abs(a); continue;
        default: break;
      }
      // Binary: the right operand is on top.
      const double b = stack[--top];
      double& lhs = stack[top - 1];
      switch (i.op) {
        case OpCode::kAdd: lhs = lhs + b; break;
        case OpCode::kSubtract: lhs = lhs - b; break;
        case OpCode::kMultiply: lhs = lhs * b; break;
        case OpCode::kDivide:
          if (b == 0.0) return false;
          lhs = lhs / b;
          break;
        case OpCode::kPower: lhs = std::pow(lhs, b); break;
        case OpCode::kMin: lhs = std::min(lhs, b); break;
        case OpCode::kMax: lhs = std::max(lhs, b); break;
        default: throw std::logic_error("ProgramSet::evaluate: unreachable");
      }
    }
    values[p] = stack[0];
  }
  return true;
}

std::uint32_t ProgramSet::Builder::add(const Expression& expression) {
  const auto shared = by_root_.find(expression.root_.get());
  if (shared != by_root_.end()) return shared->second;

  code_.clear();
  expression.root_->emit(*this);
  if (set_.begin_.empty()) set_.begin_.push_back(0);
  const auto program = static_cast<std::uint32_t>(set_.size());
  const auto [found, inserted] = by_code_.emplace(code_hash(code_), program);
  std::uint32_t p = found->second;
  if (!inserted) {
    const auto begin = set_.code_.begin() + set_.begin_[p];
    const auto end = set_.code_.begin() + set_.begin_[p + 1];
    // A hash collision only costs the sharing.
    if (!std::equal(begin, end, code_.begin(), code_.end(), same_code)) {
      p = program;
    }
  }
  if (p == program) {
    set_.code_.insert(set_.code_.end(), code_.begin(), code_.end());
    set_.begin_.push_back(static_cast<std::uint32_t>(set_.code_.size()));
  }
  by_root_.emplace(expression.root_.get(), p);
  return p;
}

void ProgramSet::Builder::emit(OpCode op, double constant) {
  Instruction i;
  i.op = op;
  i.constant = constant;
  code_.push_back(i);
}

void ProgramSet::Builder::emit_variable(const std::string& name) {
  auto found = slot_of_.find(name);
  if (found == slot_of_.end()) {
    found = slot_of_
                .emplace(name, static_cast<std::uint32_t>(set_.slots_.size()))
                .first;
    set_.slots_.push_back(name);
  }
  Instruction i;
  i.op = OpCode::kSlot;
  i.slot = found->second;
  code_.push_back(i);
}

ProgramSet ProgramSet::Builder::finish() && {
  // Renumber the slots in name order, so a bind can read them in one
  // ordered pass over a ParameterSet.
  std::vector<std::uint32_t> order(set_.slots_.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return set_.slots_[a] < set_.slots_[b];
  });
  std::vector<std::uint32_t> renumbered(order.size());
  std::vector<std::string> sorted(order.size());
  for (std::size_t s = 0; s < order.size(); ++s) {
    renumbered[order[s]] = static_cast<std::uint32_t>(s);
    sorted[s] = std::move(set_.slots_[order[s]]);
  }
  set_.slots_ = std::move(sorted);

  for (std::size_t p = 0; p < set_.size(); ++p) {
    int depth = 0;
    for (std::uint32_t k = set_.begin_[p]; k < set_.begin_[p + 1]; ++k) {
      Instruction& i = set_.code_[k];
      if (i.op == OpCode::kSlot) i.slot = renumbered[i.slot];
      depth += stack_effect(i.op);
      set_.max_stack_ =
          std::max(set_.max_stack_, static_cast<std::size_t>(depth));
    }
  }
  return std::move(set_);
}

}  // namespace rascal::expr
