#include "bcc/bicomp.hpp"

#include <algorithm>

#include "graph/transform.hpp"
#include "support/error.hpp"

namespace apgre {

namespace {

struct Frame {
  Vertex v;
  Vertex parent;
  std::uint32_t next;
  bool skipped_parent;
};

}  // namespace

BiconnectedComponents biconnected_components(const CsrGraph& g) {
  const CsrGraph projection_storage =
      g.directed() ? undirected_projection(g) : CsrGraph();
  const CsrGraph& u = g.directed() ? projection_storage : g;

  const Vertex n = u.num_vertices();
  BiconnectedComponents out;
  out.is_articulation = std::vector<bool>(n, false);
  out.any_component.assign(n, kInvalidVertex);

  std::vector<Vertex> disc(n, kInvalidVertex);
  std::vector<Vertex> low(n, 0);
  std::vector<Frame> stack;
  EdgeList edge_stack;
  // Epoch-stamped membership marker for deduplicating component vertices.
  std::vector<Vertex> vertex_stamp(n, kInvalidVertex);
  Vertex time = 0;

  std::vector<Vertex> block_vertices;  // the closing block's, unsorted

  auto close_component = [&](const Edge& boundary) {
    const Vertex id = out.num_components++;
    // The block's edges are the stack from `boundary` up. Both lists are
    // allocated at their final size.
    std::size_t first = edge_stack.size();
    do {
      APGRE_ASSERT(first > 0);
      --first;
    } while (edge_stack[first].src != boundary.src ||
             edge_stack[first].dst != boundary.dst);
    auto& edges = out.component_edges.emplace_back();
    edges.reserve(edge_stack.size() - first);
    block_vertices.clear();
    for (std::size_t i = first; i < edge_stack.size(); ++i) {
      const Edge e = edge_stack[i];
      edges.push_back(Edge{std::min(e.src, e.dst), std::max(e.src, e.dst)});
      for (Vertex endpoint : {e.src, e.dst}) {
        if (vertex_stamp[endpoint] != id) {
          vertex_stamp[endpoint] = id;
          block_vertices.push_back(endpoint);
          out.any_component[endpoint] = id;
        }
      }
    }
    edge_stack.resize(first);
    std::sort(block_vertices.begin(), block_vertices.end());
    out.component_vertices.emplace_back(block_vertices.begin(),
                                        block_vertices.end());
    std::sort(edges.begin(), edges.end());
  };

  for (Vertex root = 0; root < n; ++root) {
    if (disc[root] != kInvalidVertex || u.out_degree(root) == 0) continue;
    disc[root] = low[root] = time++;
    stack.push_back(Frame{root, kInvalidVertex, 0, true});
    Vertex root_children = 0;

    while (!stack.empty()) {
      Frame& frame = stack.back();
      const Vertex v = frame.v;
      const auto neighbors = u.out_neighbors(v);
      if (frame.next < neighbors.size()) {
        const Vertex w = neighbors[frame.next++];
        if (w == frame.parent && !frame.skipped_parent) {
          frame.skipped_parent = true;
        } else if (disc[w] == kInvalidVertex) {
          disc[w] = low[w] = time++;
          if (v == root) ++root_children;
          edge_stack.push_back(Edge{v, w});
          stack.push_back(Frame{w, v, 0, false});
        } else if (disc[w] < disc[v]) {
          // Back edge, recorded once from the deeper endpoint.
          edge_stack.push_back(Edge{v, w});
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        const Vertex parent = frame.parent;
        stack.pop_back();
        if (parent != kInvalidVertex) {
          low[parent] = std::min(low[parent], low[v]);
          if (low[v] >= disc[parent]) {
            // The edges at or above (parent, v) form one biconnected
            // component; parent is an articulation point unless it is the
            // root (root case decided by child count below).
            close_component(Edge{parent, v});
            if (parent != root) out.is_articulation[parent] = true;
          }
        }
      }
    }
    out.is_articulation[root] = root_children >= 2;
    APGRE_ASSERT(edge_stack.empty());
  }
  return out;
}

}  // namespace apgre
