#include "io/dot_export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "ctmc/builder.h"

namespace rascal::io {
namespace {

ctmc::Ctmc sample_chain() {
  ctmc::CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Degraded", 0.7);
  b.state("Down", 0.0);
  b.rate(0, 1, 0.25).rate(1, 0, 2.0).rate(1, 2, 0.125).rate(2, 0, 1.0);
  return b.build();
}

std::string dot_of(const ctmc::Ctmc& chain, const DotOptions& options = {}) {
  std::ostringstream os;
  write_dot(os, chain, options);
  return os.str();
}

TEST(DotExport, EmitsValidDigraphStructure) {
  const std::string dot = dot_of(sample_chain());
  EXPECT_EQ(dot.find("digraph"), 0u);
  EXPECT_NE(dot.find("\"Up\" -> \"Degraded\""), std::string::npos);
  EXPECT_NE(dot.find("\"Down\" -> \"Up\""), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(DotExport, StylesStatesByReward) {
  const std::string dot = dot_of(sample_chain());
  // Down states render as shaded boxes, degraded states amber.
  EXPECT_NE(dot.find("\"Down\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"Degraded\" [shape=ellipse, style=filled"),
            std::string::npos);
  EXPECT_NE(dot.find("\"Up\" [shape=ellipse];"), std::string::npos);
}

TEST(DotExport, RateLabelsAreOptional) {
  DotOptions options;
  options.show_rates = false;
  const std::string dot = dot_of(sample_chain(), options);
  EXPECT_EQ(dot.find("label="), std::string::npos);

  options.show_rates = true;
  const std::string with_rates = dot_of(sample_chain(), options);
  EXPECT_NE(with_rates.find("label=\"0.25\""), std::string::npos);
}

TEST(DotExport, EscapesAwkwardNames) {
  ctmc::CtmcBuilder b;
  b.state("state \"one\"", 1.0);
  b.state("state\\two", 0.0);
  b.rate(0, 1, 1.0).rate(1, 0, 1.0);
  const std::string dot = dot_of(b.build());
  EXPECT_NE(dot.find("\\\"one\\\""), std::string::npos);
  EXPECT_NE(dot.find("state\\\\two"), std::string::npos);
}

TEST(DotExport, GraphNameIsQuoted) {
  DotOptions options;
  options.graph_name = "HADB pair (Figure 3)";
  const std::string dot = dot_of(sample_chain(), options);
  EXPECT_NE(dot.find("digraph \"HADB pair (Figure 3)\""),
            std::string::npos);
}

}  // namespace
}  // namespace rascal::io
