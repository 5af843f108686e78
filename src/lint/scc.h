// Tarjan's strongly-connected-components algorithm over a generic
// directed graph (adjacency lists), plus the condensation queries the
// structural lint checks need: which components are closed (no edges
// leaving them) and which vertices are reachable from a root.
//
// Graph-only on purpose — the ctmc library uses this for the
// solvers' fail-fast validation, so it must not depend on ctmc types.
#pragma once

#include <cstddef>
#include <vector>

namespace rascal::lint {

using Adjacency = std::vector<std::vector<std::size_t>>;

struct SccResult {
  /// Vertex -> component index.  Components are numbered in reverse
  /// topological order of the condensation (Tarjan's natural output):
  /// every edge between distinct components goes from a higher
  /// component index to a lower one.
  std::vector<std::size_t> component_of;
  /// Component index -> member vertices (ascending).
  std::vector<std::vector<std::size_t>> components;

  [[nodiscard]] std::size_t num_components() const noexcept {
    return components.size();
  }
};

/// Iterative Tarjan over `edges` (size = vertex count).  Edge targets
/// must be in range.
[[nodiscard]] SccResult tarjan_scc(const Adjacency& edges);

/// Per-component flag: true when no edge leaves the component (a
/// closed, i.e. recurrent/absorbing, class of the chain).
[[nodiscard]] std::vector<bool> closed_components(const Adjacency& edges,
                                                  const SccResult& scc);

/// Per-vertex flag: reachable from `root` following `edges`
/// (including `root` itself).
[[nodiscard]] std::vector<bool> reachable_from(const Adjacency& edges,
                                               std::size_t root);

}  // namespace rascal::lint
