// Byte-exact golden rendering tests for the report layer.  Any
// formatting change (padding, separators, axis layout) shows up as a
// diff here and must be a conscious decision, because downstream
// scripts parse these outputs.
#include <gtest/gtest.h>

#include "report/ascii_plot.h"
#include "report/table.h"

namespace rascal::report {
namespace {

TEST(ReportGolden, TableRendersByteExact) {
  TextTable t({"Config", "Availability", "Downtime (min/yr)"});
  t.add_row({"Config 1", "99.99933%", "3.49"});
  t.add_row({"Config 2", "99.99956%", "2.28"});
  const std::string expected =
      "| Config   | Availability | Downtime (min/yr) |\n"
      "|----------|--------------|-------------------|\n"
      "| Config 1 | 99.99933%    | 3.49              |\n"
      "| Config 2 | 99.99956%    | 2.28              |\n";
  EXPECT_EQ(t.to_string(), expected);
}

TEST(ReportGolden, LinePlotRendersByteExact) {
  PlotOptions options;
  options.title = "downtime vs n";
  options.x_label = "n";
  options.width = 24;
  options.height = 6;
  const std::string expected =
      "downtime vs n\n"
      "           4 |*                       \n"
      "         3.3 |                        \n"
      "         2.6 |                        \n"
      "         1.9 |        *               \n"
      "         1.2 |               *        \n"
      "         0.5 |                       *\n"
      "             +------------------------\n"
      "              1 4  n\n";
  EXPECT_EQ(line_plot({1.0, 2.0, 3.0, 4.0}, {4.0, 2.0, 1.0, 0.5}, options),
            expected);
}

}  // namespace
}  // namespace rascal::report
