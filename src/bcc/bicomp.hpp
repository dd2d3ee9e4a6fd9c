// Biconnected components of the undirected projection (paper Algorithm 1's
// FINDBCC, Hopcroft-Tarjan, O(|V|+|E|)).
//
// Every undirected edge belongs to exactly one biconnected component
// (property 4 of paper §3.1: "an edge in G is assigned to one sub-graph");
// articulation points belong to every component that touches them.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

struct BiconnectedComponents {
  Vertex num_components = 0;
  /// Vertices of each component, sorted ascending. Articulation points
  /// appear in several components.
  std::vector<std::vector<Vertex>> component_vertices;
  /// Undirected edges of each component, canonicalised src < dst.
  std::vector<EdgeList> component_edges;
  /// Per-vertex articulation flag (matches articulation_points()).
  std::vector<bool> is_articulation;
  /// For every vertex, the id of one component containing it
  /// (kInvalidVertex for isolated vertices).
  std::vector<Vertex> any_component;
};

/// Decompose the undirected projection of `g`. Isolated vertices belong to
/// no component.
BiconnectedComponents biconnected_components(const CsrGraph& g);

/// Inert: no decomposition reads it, biconnected_components() is the one
/// block decomposition. Kept so that callers which still forward
/// PartitionOptions::parallel_decomposition to BlockCutQueries compile.
enum class ParallelDecomposition { kAuto };

}  // namespace apgre
