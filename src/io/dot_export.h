// Graphviz DOT export of a CTMC — render model diagrams like the
// paper's Figures 2-4 with `dot -Tpng`.
#pragma once

#include <iosfwd>
#include <string>

#include "ctmc/ctmc.h"

namespace rascal::io {

struct DotOptions {
  std::string graph_name = "ctmc";
  bool show_rates = true;
  int rate_precision = 4;  // significant digits on edge labels
};

/// Writes the chain as a directed graph: up states are ellipses, down
/// states are shaded boxes, edges carry rates.
void write_dot(std::ostream& os, const ctmc::Ctmc& chain,
               const DotOptions& options = {});

}  // namespace rascal::io
