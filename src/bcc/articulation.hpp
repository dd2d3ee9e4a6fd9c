// Articulation points of the undirected projection via an iterative
// Hopcroft-Tarjan low-link DFS (paper Algorithm 1 uses Tarjan's algorithm,
// O(|V|+|E|)).
//
// This standalone finder is intentionally independent of the biconnected-
// component decomposition in bicomp.hpp; the test suite cross-checks the
// two implementations against each other and against brute force. Its DFS
// core, lowpoint_search, also answers the block-survival check of
// BlockCutQueries::classify_batch (bcc/queries.hpp) on a block-sized
// adjacency.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace apgre {

/// Per-vertex articulation flag. `g` may be directed; the undirected
/// projection is what gets analysed (arcs in both directions are followed).
std::vector<bool> articulation_points(const CsrGraph& g);

/// Oracle used by tests: v is an articulation point iff removing it
/// increases the number of connected components of the undirected
/// projection. O(|V| * (|V|+|E|)).
std::vector<bool> articulation_points_bruteforce(const CsrGraph& g);

/// Working state of lowpoint_search, reusable across the searches of one
/// graph (articulation_points runs one per connected component).
struct LowpointScratch {
  struct Frame {
    Vertex v;
    Vertex parent;
    EdgeId next;  ///< next arc of v to scan
    bool skipped_parent;
  };
  std::vector<Vertex> disc;  ///< discovery time; kInvalidVertex = unvisited
  std::vector<Vertex> low;
  std::vector<Frame> stack;
  Vertex time = 0;

  /// Marks all `n` vertices unvisited.
  void reset(Vertex n);
};

struct LowpointSearch {
  Vertex reached = 0;      ///< vertices this search discovered
  bool found_cut = false;  ///< some discovered vertex is a cut vertex
};

/// The lowpoint DFS core: one iterative Hopcroft-Tarjan search from `root`
/// over the symmetric adjacency whose vertex v has the neighbours
/// targets[offsets[v] .. offsets[v + 1]). Exactly one arc back to the DFS
/// parent is skipped, so a parallel arc counts as a back edge. With
/// `is_cut` it flags every cut vertex of root's component; without it the
/// search stops at the first cut vertex it finds.
LowpointSearch lowpoint_search(std::span<const EdgeId> offsets,
                               std::span<const Vertex> targets, Vertex root,
                               LowpointScratch& scratch,
                               std::vector<bool>* is_cut);

}  // namespace apgre
