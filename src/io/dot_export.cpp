#include "io/dot_export.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace rascal::io {

namespace {

// DOT identifiers allow few characters; quote and escape everything.
std::string quoted(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_dot(std::ostream& os, const ctmc::Ctmc& chain,
               const DotOptions& options) {
  os << "digraph " << quoted(options.graph_name) << " {\n"
     << "  rankdir=LR;\n"
     << "  node [fontname=\"Helvetica\"];\n";
  for (ctmc::StateId s = 0; s < chain.num_states(); ++s) {
    os << "  " << quoted(chain.state_name(s));
    if (chain.reward(s) < 0.5) {
      os << " [shape=box, style=filled, fillcolor=\"#f4cccc\"]";
    } else if (chain.reward(s) < 1.0) {
      os << " [shape=ellipse, style=filled, fillcolor=\"#fff2cc\"]";
    } else {
      os << " [shape=ellipse]";
    }
    os << ";\n";
  }
  for (const ctmc::Transition& t : chain.transitions()) {
    os << "  " << quoted(chain.state_name(t.from)) << " -> "
       << quoted(chain.state_name(t.to));
    if (options.show_rates) {
      std::ostringstream rate;
      rate << std::setprecision(options.rate_precision) << t.rate;
      os << " [label=" << quoted(rate.str()) << "]";
    }
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace rascal::io
