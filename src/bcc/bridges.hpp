// Bridges and 2-edge-connected components of the undirected projection.
//
// Complements the vertex-connectivity decomposition (articulation points /
// biconnected components): a bridge is an edge whose removal disconnects
// the graph — every bridge is a 2-vertex biconnected component, and both
// of its non-leaf endpoints are articulation points. The metamorphic
// checks (check/metamorphic.cpp, check/dynamic_metamorphic.cpp) use them.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

struct BridgeDecomposition {
  /// Bridge edges, canonicalised src < dst, sorted.
  EdgeList bridges;
  /// Per vertex: id of its 2-edge-connected component
  /// (dense in [0, num_components); isolated vertices get their own).
  std::vector<Vertex> component;
  Vertex num_components = 0;
};

/// Tarjan low-link bridge finding, iterative, O(|V|+|E|). Directed inputs
/// are analysed through their undirected projection.
BridgeDecomposition bridge_decomposition(const CsrGraph& g);

/// Oracle for tests: an edge is a bridge iff removing it increases the
/// component count. O(|E| * (|V|+|E|)).
EdgeList bridges_bruteforce(const CsrGraph& g);

}  // namespace apgre
