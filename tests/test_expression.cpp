#include "expr/expression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "expr/lexer.h"

namespace rascal::expr {
namespace {

double eval(const std::string& src, const ParameterSet& params = {}) {
  return Expression::parse(src).evaluate(params);
}

TEST(Lexer, TokenizesAllKinds) {
  const auto tokens = tokenize("2.5e-3 * La_hadb + (x)^2, -");
  ASSERT_EQ(tokens.size(), 12u);  // includes kEnd
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 2.5e-3);
  EXPECT_EQ(tokens[1].kind, TokenKind::kStar);
  EXPECT_EQ(tokens[2].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[2].text, "La_hadb");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(Lexer, RejectsUnknownCharacters) {
  EXPECT_THROW((void)tokenize("a @ b"), ParseError);
}

TEST(Expression, ArithmeticPrecedence) {
  EXPECT_DOUBLE_EQ(eval("2+3*4"), 14.0);
  EXPECT_DOUBLE_EQ(eval("(2+3)*4"), 20.0);
  EXPECT_DOUBLE_EQ(eval("10-4-3"), 3.0);     // left associative
  EXPECT_DOUBLE_EQ(eval("24/4/2"), 3.0);     // left associative
  EXPECT_DOUBLE_EQ(eval("2^3^2"), 512.0);    // right associative
  EXPECT_DOUBLE_EQ(eval("-2^2"), -4.0);      // '^' binds tighter than unary
  EXPECT_DOUBLE_EQ(eval("(-2)^2"), 4.0);
  EXPECT_DOUBLE_EQ(eval("2*-3"), -6.0);
}

TEST(Expression, ScientificNotation) {
  EXPECT_DOUBLE_EQ(eval("1e3 + 2.5E-2"), 1000.025);
}

TEST(Expression, VariablesResolveFromParameterSet) {
  ParameterSet p{{"La_hadb", 2.0 / 8760.0}, {"FIR", 0.001}};
  EXPECT_NEAR(eval("2*La_hadb*(1-FIR)", p), 2.0 * (2.0 / 8760.0) * 0.999,
              1e-15);
}

TEST(Expression, UnknownVariableThrowsWithName) {
  try {
    (void)eval("missing_param + 1");
    FAIL() << "expected UnknownParameterError";
  } catch (const UnknownParameterError& e) {
    EXPECT_EQ(e.name(), "missing_param");
  }
}

TEST(Expression, BuiltinFunctions) {
  EXPECT_DOUBLE_EQ(eval("min(3, 5)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("max(3, 5)"), 5.0);
  EXPECT_DOUBLE_EQ(eval("abs(-4)"), 4.0);
  EXPECT_NEAR(eval("exp(1)"), M_E, 1e-14);
  EXPECT_NEAR(eval("log(exp(2))"), 2.0, 1e-14);
  EXPECT_DOUBLE_EQ(eval("sqrt(9)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("pow(2, 10)"), 1024.0);
}

TEST(Expression, FunctionArityIsChecked) {
  EXPECT_THROW((void)Expression::parse("min(1)"), std::invalid_argument);
  EXPECT_THROW((void)Expression::parse("exp(1, 2)"), std::invalid_argument);
  EXPECT_THROW((void)Expression::parse("nosuch(1)"), std::invalid_argument);
}

TEST(Expression, DomainErrors) {
  EXPECT_THROW((void)eval("1/0"), std::domain_error);
  EXPECT_THROW((void)eval("log(0)"), std::domain_error);
  EXPECT_THROW((void)eval("sqrt(-1)"), std::domain_error);
}

TEST(Expression, ParseErrorsCarryPosition) {
  try {
    (void)Expression::parse("1 + ");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position(), 4u);
  }
  EXPECT_THROW((void)Expression::parse("(1+2"), ParseError);
  EXPECT_THROW((void)Expression::parse("1 2"), ParseError);
  EXPECT_THROW((void)Expression::parse(""), ParseError);
}

TEST(Expression, VariablesAreCollected) {
  const auto vars = Expression::parse("a*b + max(c, a) - 2").variables();
  EXPECT_EQ(vars, (std::set<std::string>{"a", "b", "c"}));
}

TEST(Expression, DivisionByZeroNamesTheDivision) {
  // The message prints the failing division through the AST printer,
  // fully parenthesized.
  const ParameterSet p{{"x", 3.0}, {"y", 0.5}};
  try {
    (void)eval("2*x/(y-y)+1", p);
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_STREQ(e.what(), "expression: division by zero in ((2*x)/(y-y))");
  }
}

TEST(Expression, PaperRateStringsEvaluate) {
  // The exact strings used in the Figure 3 / Figure 4 models.
  ParameterSet p{{"hadb_La_hadb", 2.0 / 8760.0}, {"hadb_La_os", 1.0 / 8760.0},
                 {"hadb_La_hw", 1.0 / 8760.0},   {"hadb_FIR", 0.001},
                 {"Acc", 2.0},                   {"as_La_as", 50.0 / 8760.0},
                 {"as_La_os", 1.0 / 8760.0},     {"as_La_hw", 1.0 / 8760.0},
                 {"as_Trecovery", 5.0 / 3600.0}};
  EXPECT_NEAR(eval("2*hadb_La_hadb*(1-hadb_FIR)", p), 4.5616e-4, 1e-7);
  EXPECT_NEAR(
      eval("Acc*(hadb_La_hadb+hadb_La_os+hadb_La_hw)", p), 9.1324e-4, 1e-7);
  EXPECT_NEAR(
      eval("(as_La_as/(as_La_as+as_La_os+as_La_hw))/as_Trecovery", p),
      (50.0 / 52.0) / (5.0 / 3600.0), 1e-9);
}

TEST(ParameterSet, SetGetAndMerge) {
  ParameterSet p;
  p.set("a", 1.0).set("b", 2.0);
  EXPECT_TRUE(p.contains("a"));
  EXPECT_FALSE(p.contains("z"));
  EXPECT_DOUBLE_EQ(p.get("b"), 2.0);
  EXPECT_THROW((void)p.get("z"), UnknownParameterError);

  const ParameterSet merged = p.with(ParameterSet{{"b", 5.0}, {"c", 6.0}});
  EXPECT_DOUBLE_EQ(merged.get("a"), 1.0);
  EXPECT_DOUBLE_EQ(merged.get("b"), 5.0);
  EXPECT_DOUBLE_EQ(merged.get("c"), 6.0);
  std::vector<std::string> names;
  for (const auto& [name, value] : merged) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace rascal::expr
