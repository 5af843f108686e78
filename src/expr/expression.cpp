#include "expr/expression.h"


#include "expr/lexer.h"

namespace rascal::expr {

namespace {

// Recursive-descent parser.
//
//   expression := term (('+'|'-') term)*
//   term       := unary (('*'|'/') unary)*
//   unary      := '-' unary | power
//   power      := primary ('^' unary)?        (right associative)
//   primary    := NUMBER | IDENT ['(' args ')'] | '(' expression ')'
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  NodePtr parse() {
    NodePtr root = parse_expression();
    expect(TokenKind::kEnd, "end of input");
    return root;
  }

 private:
  // Deeply nested input ("((((..." or "----...") otherwise recurses
  // once per level and overflows the stack; depth-bounded evaluation
  // is also what keeps the recursive Node walks (evaluate,
  // differentiate, to_string) safe on every tree this parser built.
  static constexpr std::size_t kMaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxDepth) {
        throw ParseError("expression nests deeper than " +
                             std::to_string(kMaxDepth) + " levels",
                         parser_.peek().position);
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser_;
  };

  const Token& peek() const { return tokens_[pos_]; }
  Token advance() { return tokens_[pos_++]; }

  bool match(TokenKind kind) {
    if (peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(TokenKind kind, const std::string& what) {
    if (!match(kind)) {
      throw ParseError("expected " + what, peek().position);
    }
  }

  NodePtr parse_expression() {
    const DepthGuard guard(*this);
    NodePtr lhs = parse_term();
    while (true) {
      if (match(TokenKind::kPlus)) {
        lhs = std::make_shared<BinaryNode>(BinaryOp::kAdd, lhs, parse_term());
      } else if (match(TokenKind::kMinus)) {
        lhs = std::make_shared<BinaryNode>(BinaryOp::kSubtract, lhs,
                                           parse_term());
      } else {
        return lhs;
      }
    }
  }

  NodePtr parse_term() {
    NodePtr lhs = parse_unary();
    while (true) {
      if (match(TokenKind::kStar)) {
        lhs = std::make_shared<BinaryNode>(BinaryOp::kMultiply, lhs,
                                           parse_unary());
      } else if (match(TokenKind::kSlash)) {
        lhs = std::make_shared<BinaryNode>(BinaryOp::kDivide, lhs,
                                           parse_unary());
      } else {
        return lhs;
      }
    }
  }

  NodePtr parse_unary() {
    const DepthGuard guard(*this);
    if (match(TokenKind::kMinus)) {
      return std::make_shared<NegateNode>(parse_unary());
    }
    return parse_power();
  }

  NodePtr parse_power() {
    NodePtr base = parse_primary();
    if (match(TokenKind::kCaret)) {
      // Right associative: 2^3^2 == 2^(3^2).
      return std::make_shared<BinaryNode>(BinaryOp::kPower, base,
                                          parse_unary());
    }
    return base;
  }

  NodePtr parse_primary() {
    const Token token = advance();
    switch (token.kind) {
      case TokenKind::kNumber:
        return std::make_shared<NumberNode>(token.number);
      case TokenKind::kIdentifier: {
        if (peek().kind == TokenKind::kLeftParen) {
          ++pos_;  // consume '('
          std::vector<NodePtr> args;
          if (peek().kind != TokenKind::kRightParen) {
            args.push_back(parse_expression());
            while (match(TokenKind::kComma)) {
              args.push_back(parse_expression());
            }
          }
          expect(TokenKind::kRightParen, "')'");
          return std::make_shared<CallNode>(token.text, std::move(args));
        }
        return std::make_shared<VariableNode>(token.text);
      }
      case TokenKind::kLeftParen: {
        NodePtr inner = parse_expression();
        expect(TokenKind::kRightParen, "')'");
        return inner;
      }
      default:
        throw ParseError("expected a number, name, or '('", token.position);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Expression::Expression(NodePtr root, std::string source)
    : root_(std::move(root)), source_(std::move(source)) {}

Expression Expression::parse(const std::string& source) {
  Parser parser(tokenize(source));
  return Expression(parser.parse(), source);
}

double Expression::evaluate(const ParameterSet& params) const {
  return root_->evaluate(params);
}

std::set<std::string> Expression::variables() const {
  std::set<std::string> out;
  root_->collect_variables(out);
  return out;
}

Expression Expression::derivative(const std::string& variable) const {
  NodePtr d = root_->differentiate(variable);
  std::string source = "d(" + source_ + ")/d" + variable;
  return Expression(std::move(d), std::move(source));
}

}  // namespace rascal::expr
