#include <gtest/gtest.h>

#include "report/ascii_plot.h"
#include "report/table.h"

namespace rascal::report {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Config", "Availability"});
  t.add_row({"Config 1", "99.99933%"});
  t.add_row({"2", "99.99956%"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| Config 1 |"), std::string::npos);
  EXPECT_NE(out.find("| Availability |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, Validation) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.9999933, 5), "99.99933%");
  EXPECT_EQ(format_percent(0.999629, 4), "99.9629%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Format, FixedAndGeneral) {
  EXPECT_EQ(format_fixed(3.4567, 2), "3.46");
  EXPECT_EQ(format_fixed(195.0, 0), "195");
  EXPECT_EQ(format_general(229326.4, 6), "229326");
  EXPECT_EQ(format_general(0.00012345, 3), "0.000123");
}

TEST(AsciiPlot, LinePlotContainsMarksAndLabels) {
  PlotOptions options;
  options.title = "Sensitivity";
  options.x_label = "hours";
  const std::string plot =
      line_plot({0.5, 1.0, 1.5, 2.0}, {4.0, 3.0, 2.0, 1.0}, options);
  EXPECT_NE(plot.find("Sensitivity"), std::string::npos);
  EXPECT_NE(plot.find("hours"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, ScatterUsesDots) {
  const std::string plot = scatter_plot({1.0, 2.0, 3.0}, {1.0, 4.0, 2.0});
  EXPECT_NE(plot.find('.'), std::string::npos);
}

TEST(AsciiPlot, DegenerateSeriesStillRenders) {
  // Constant y must not divide by zero.
  const std::string plot = line_plot({1.0, 2.0}, {5.0, 5.0});
  EXPECT_FALSE(plot.empty());
  // Single point.
  const std::string dot = scatter_plot({1.0}, {2.0});
  EXPECT_FALSE(dot.empty());
}

TEST(AsciiPlot, Validation) {
  EXPECT_THROW((void)line_plot({}, {}), std::invalid_argument);
  EXPECT_THROW((void)line_plot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace rascal::report
