// Dynamic betweenness centrality: maintain exact BC scores across edge
// insertions and deletions without full recomputation.
//
// The classic observation (Green, McColl & Bader 2012; also the basis of
// iCentral): inserting arc (u, v) changes the shortest-path DAG of source
// s only when d(s,u) + 1 <= d(s,v) — otherwise neither distances nor path
// counts through the new arc change. The affected source set is found with
// two reverse BFS passes; each affected source's old dependency
// contribution is subtracted (one Brandes iteration on the old graph with
// weight -1) and its new contribution added back on the updated graph.
// Cost per update: 2 BFS + O(|affected| * |E|), against O(|V||E|) from
// scratch — on real graphs most sources are unaffected.
//
// It does not go through the block-local update path (bc/incremental.hpp,
// Solver::apply_local_batch), which is why it lives here: the dynamic
// oracle (check/oracle.hpp) replays update trajectories through it as an
// independent reference. It reuses the Brandes kernel, so scores stay
// bit-consistent with the static algorithms up to FP accumulation order.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace apgre {

class DynamicBc {
 public:
  /// Computes the initial scores with serial Brandes.
  explicit DynamicBc(CsrGraph graph);

  const CsrGraph& graph() const { return graph_; }
  const std::vector<double>& scores() const { return bc_; }

  /// Insert arc u -> v (plus v -> u for undirected graphs). Throws if the
  /// arc already exists or is a self-loop.
  /// Returns the number of sources whose contributions were recomputed.
  Vertex insert_edge(Vertex u, Vertex v);

  /// Remove arc u -> v (plus v -> u for undirected graphs). Throws if the
  /// arc does not exist.
  Vertex remove_edge(Vertex u, Vertex v);

 private:
  /// Sources whose DAG can change when arc (u, v) appears/disappears,
  /// evaluated on `reference` (the graph that contains the arc for
  /// removals, the pre-insertion graph for insertions).
  std::vector<Vertex> affected_sources(const CsrGraph& reference, Vertex u,
                                       Vertex v, bool inserting) const;

  Vertex apply_update(Vertex u, Vertex v, bool inserting);

  CsrGraph graph_;
  std::vector<double> bc_;
};

}  // namespace apgre
