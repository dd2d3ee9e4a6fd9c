#include "graph/mutate.hpp"

#include <algorithm>
#include <utility>

#include "graph/update.hpp"
#include "support/error.hpp"

namespace apgre {

bool has_arc(const CsrGraph& g, Vertex u, Vertex v) {
  const auto neighbors = g.out_neighbors(u);
  return std::binary_search(neighbors.begin(), neighbors.end(), v);
}

CsrGraph with_edge_inserted(const CsrGraph& g, Vertex u, Vertex v) {
  return apply_edge_ops(g, {EdgeOp{u, v, /*insert=*/true}});
}

CsrGraph with_edge_removed(const CsrGraph& g, Vertex u, Vertex v) {
  return apply_edge_ops(g, {EdgeOp{u, v, /*insert=*/false}});
}

CsrGraph with_pendant_attached(const CsrGraph& g, Vertex host) {
  APGRE_ASSERT(host < g.num_vertices());
  const Vertex pendant = g.num_vertices();
  EdgeList arcs = g.arcs();
  arcs.push_back(Edge{pendant, host});
  if (!g.directed()) arcs.push_back(Edge{host, pendant});
  return CsrGraph::from_edges(pendant + 1, std::move(arcs), g.directed());
}

}  // namespace apgre
