#include "bcc/articulation.hpp"

#include <algorithm>
#include <vector>

#include "graph/components.hpp"
#include "graph/transform.hpp"

namespace apgre {

void LowpointScratch::reset(Vertex n) {
  disc.assign(n, kInvalidVertex);
  low.assign(n, 0);
  stack.clear();
  time = 0;
}

LowpointSearch lowpoint_search(std::span<const EdgeId> offsets,
                               std::span<const Vertex> targets, Vertex root,
                               LowpointScratch& scratch,
                               std::vector<bool>* is_cut) {
  auto& disc = scratch.disc;
  auto& low = scratch.low;
  auto& stack = scratch.stack;
  LowpointSearch out;
  // True when the search should stop here.
  const auto report_cut = [&](Vertex v) {
    out.found_cut = true;
    if (is_cut == nullptr) return true;
    (*is_cut)[v] = true;
    return false;
  };

  disc[root] = low[root] = scratch.time++;
  out.reached = 1;
  stack.push_back({root, kInvalidVertex, offsets[root], true});
  Vertex root_children = 0;
  while (!stack.empty()) {
    LowpointScratch::Frame& frame = stack.back();
    const Vertex v = frame.v;
    if (frame.next < offsets[v + 1]) {
      const Vertex w = targets[frame.next++];
      if (w == frame.parent && !frame.skipped_parent) {
        frame.skipped_parent = true;
      } else if (disc[w] == kInvalidVertex) {
        disc[w] = low[w] = scratch.time++;
        ++out.reached;
        // The root is a cut vertex iff it has two DFS children.
        if (v == root && ++root_children == 2 && report_cut(root)) break;
        stack.push_back({w, v, offsets[w], false});
      } else {
        low[v] = std::min(low[v], disc[w]);
      }
    } else {
      const Vertex parent = frame.parent;
      stack.pop_back();
      if (parent == kInvalidVertex) continue;
      low[parent] = std::min(low[parent], low[v]);
      if (parent != root && low[v] >= disc[parent] && report_cut(parent)) {
        break;
      }
    }
  }
  stack.clear();
  return out;
}

std::vector<bool> articulation_points(const CsrGraph& g) {
  const CsrGraph projection_storage =
      g.directed() ? undirected_projection(g) : CsrGraph();
  const CsrGraph& u = g.directed() ? projection_storage : g;

  const Vertex n = u.num_vertices();
  std::vector<bool> is_ap(n, false);
  LowpointScratch scratch;
  scratch.reset(n);
  for (Vertex root = 0; root < n; ++root) {
    if (scratch.disc[root] == kInvalidVertex) {
      lowpoint_search(u.out_offsets(), u.out_targets(), root, scratch, &is_ap);
    }
  }
  return is_ap;
}

std::vector<bool> articulation_points_bruteforce(const CsrGraph& g) {
  const CsrGraph projection_storage =
      g.directed() ? undirected_projection(g) : CsrGraph();
  const CsrGraph& u = g.directed() ? projection_storage : g;

  const Vertex n = u.num_vertices();
  const Vertex base_components = connected_components(u).num_components;
  std::vector<bool> is_ap(n, false);
  std::vector<Vertex> queue;
  std::vector<bool> seen(n);

  for (Vertex removed = 0; removed < n; ++removed) {
    if (u.out_degree(removed) == 0) continue;
    std::fill(seen.begin(), seen.end(), false);
    seen[removed] = true;
    Vertex components = 1;  // the removed vertex forms its own
    for (Vertex start = 0; start < n; ++start) {
      if (seen[start]) continue;
      ++components;
      seen[start] = true;
      queue.assign(1, start);
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (Vertex w : u.out_neighbors(queue[head])) {
          if (!seen[w]) {
            seen[w] = true;
            queue.push_back(w);
          }
        }
      }
    }
    // Removing `removed` splits the graph iff the component count (with the
    // removed vertex counted alone) exceeds base + 1.
    is_ap[removed] = components > base_components + 1;
  }
  return is_ap;
}

}  // namespace apgre
