// Compressed Sparse Row graph — the storage format used throughout
// (paper §5.1: "the graphs are stored in Compressed Sparse Row format").
//
// A CsrGraph always stores out-adjacency. For directed graphs it also
// stores the transposed (in-)adjacency, which the BC backward sweeps, the
// reverse BFS of beta counting, and the hybrid bottom-up BFS all need. For
// undirected (symmetric) graphs in- and out-adjacency coincide and are
// shared.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "support/error.hpp"

namespace apgre {

/// Number of stored arcs. An undirected edge contributes two arcs.
using EdgeId = std::uint64_t;

struct EdgeOp;  // graph/update.hpp

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Build from an arc list. `directed == false` asserts that `edges` is
  /// symmetric is NOT checked here (builders guarantee it); it selects
  /// whether the transpose is shared or materialised.
  /// Self-loops and duplicate arcs are removed.
  static CsrGraph from_edges(Vertex num_vertices, EdgeList edges, bool directed);

  /// Convenience: build an undirected graph, adding reverse arcs for the
  /// caller (so `edges` may list each undirected edge once).
  static CsrGraph undirected_from_edges(Vertex num_vertices, EdgeList edges);

  Vertex num_vertices() const { return num_vertices_; }
  /// Stored arcs (see EdgeId doc).
  EdgeId num_arcs() const { return static_cast<EdgeId>(out_targets_.size()); }
  /// Logical edge count: arcs for directed graphs, arcs/2 for undirected.
  EdgeId num_edges() const { return directed_ ? num_arcs() : num_arcs() / 2; }
  bool directed() const { return directed_; }

  std::span<const Vertex> out_neighbors(Vertex v) const {
    APGRE_ASSERT(v < num_vertices_);
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }

  std::span<const Vertex> in_neighbors(Vertex v) const {
    APGRE_ASSERT(v < num_vertices_);
    const auto& offsets = directed_ ? in_offsets_ : out_offsets_;
    const auto& targets = directed_ ? in_targets_ : out_targets_;
    return {targets.data() + offsets[v], targets.data() + offsets[v + 1]};
  }

  /// The out-adjacency arrays: v's out-neighbours are
  /// out_targets()[out_offsets()[v] .. out_offsets()[v + 1]).
  std::span<const EdgeId> out_offsets() const { return out_offsets_; }
  std::span<const Vertex> out_targets() const { return out_targets_; }

  /// Start of v's out-neighbour block in the arc array; with out_degree it
  /// gives per-arc slot indices (used by the predecessor-list algorithm).
  EdgeId out_offset(Vertex v) const {
    APGRE_ASSERT(v < num_vertices_);
    return out_offsets_[v];
  }

  /// Start of v's in-neighbour block in the transposed arc array.
  EdgeId in_offset(Vertex v) const {
    APGRE_ASSERT(v < num_vertices_);
    return directed_ ? in_offsets_[v] : out_offsets_[v];
  }

  Vertex out_degree(Vertex v) const {
    APGRE_ASSERT(v < num_vertices_);
    return static_cast<Vertex>(out_offsets_[v + 1] - out_offsets_[v]);
  }

  Vertex in_degree(Vertex v) const {
    APGRE_ASSERT(v < num_vertices_);
    const auto& offsets = directed_ ? in_offsets_ : out_offsets_;
    return static_cast<Vertex>(offsets[v + 1] - offsets[v]);
  }

  /// Undirected degree: number of distinct neighbours touching v in either
  /// direction. For undirected graphs this is out_degree.
  Vertex undirected_degree(Vertex v) const;

  /// Reconstruct the stored arc list (sorted by (src, dst)).
  EdgeList arcs() const;

  /// True if for every arc (u,v) the arc (v,u) is stored too.
  bool is_symmetric() const;

  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

  // The batch edit (graph/update.hpp) shifts the arrays in place — no
  // EdgeList round-trip, no re-sort — and reserves their capacity first.
  // It needs the private arrays, hence friendship.
  friend void apply_edge_ops_in_place(CsrGraph& g,
                                      const std::vector<EdgeOp>& ops);
  friend CsrGraph apply_edge_ops(const CsrGraph& g,
                                 const std::vector<EdgeOp>& ops);

 private:
  Vertex num_vertices_ = 0;
  bool directed_ = false;
  std::vector<EdgeId> out_offsets_{0};
  std::vector<Vertex> out_targets_;
  std::vector<EdgeId> in_offsets_;   // empty when !directed_
  std::vector<Vertex> in_targets_;   // empty when !directed_
};

}  // namespace apgre
