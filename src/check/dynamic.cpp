#include "check/dynamic.hpp"

#include <algorithm>
#include <limits>

#include "bc/brandes.hpp"
#include "bc/brandes_kernel.hpp"
#include "graph/mutate.hpp"
#include "support/error.hpp"

namespace apgre {

namespace {

/// Distances *to* `target` from every vertex (reverse BFS over in-arcs).
std::vector<std::uint32_t> distances_to(const CsrGraph& g, Vertex target) {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.num_vertices(), kInf);
  std::vector<Vertex> queue{target};
  dist[target] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (Vertex w : g.in_neighbors(v)) {
      if (dist[w] == kInf) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

}  // namespace

DynamicBc::DynamicBc(CsrGraph graph)
    : graph_(std::move(graph)), bc_(brandes_bc(graph_)) {}

std::vector<Vertex> DynamicBc::affected_sources(const CsrGraph& reference,
                                                Vertex u, Vertex v,
                                                bool inserting) const {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  const auto to_u = distances_to(reference, u);
  const auto to_v = distances_to(reference, v);
  // For undirected graphs the reverse arc changes the complementary
  // condition, so both directions are merged.
  const bool symmetric = !reference.directed();

  std::vector<Vertex> affected;
  for (Vertex s = 0; s < reference.num_vertices(); ++s) {
    bool hit = false;
    if (to_u[s] != kInf) {
      if (inserting) {
        // New arc creates or shortens s -> u -> v paths.
        hit = to_v[s] == kInf || to_u[s] + 1 <= to_v[s];
      } else {
        // Removed arc lay on a shortest path iff it was tight.
        hit = to_v[s] != kInf && to_u[s] + 1 == to_v[s];
      }
    }
    if (!hit && symmetric && to_v[s] != kInf) {
      if (inserting) {
        hit = to_u[s] == kInf || to_v[s] + 1 <= to_u[s];
      } else {
        hit = to_u[s] != kInf && to_v[s] + 1 == to_u[s];
      }
    }
    if (hit) affected.push_back(s);
  }
  return affected;
}

Vertex DynamicBc::apply_update(Vertex u, Vertex v, bool inserting) {
  APGRE_ASSERT(u < graph_.num_vertices() && v < graph_.num_vertices());
  // The mutate helper validates (and throws) before constructing the
  // successor, so nothing here changes on an illegal update.
  CsrGraph next = inserting ? with_edge_inserted(graph_, u, v)
                            : with_edge_removed(graph_, u, v);

  // The affected set is evaluated on the graph that *contains* the arc's
  // shortest-path structure change potential: the old graph works for both
  // directions of the update because the conditions are mirrored.
  const auto affected = affected_sources(graph_, u, v, inserting);

  detail::BrandesScratch scratch(graph_.num_vertices());
  for (Vertex s : affected) {
    detail::brandes_iteration(graph_, s, -1.0, scratch, bc_);
  }

  graph_ = std::move(next);

  for (Vertex s : affected) {
    detail::brandes_iteration(graph_, s, 1.0, scratch, bc_);
  }
  // Clamp accumulated cancellation noise on exact zeros.
  for (double& score : bc_) {
    if (std::abs(score) < 1e-9) score = std::max(score, 0.0);
  }
  return static_cast<Vertex>(affected.size());
}

Vertex DynamicBc::insert_edge(Vertex u, Vertex v) {
  return apply_update(u, v, /*inserting=*/true);
}

Vertex DynamicBc::remove_edge(Vertex u, Vertex v) {
  return apply_update(u, v, /*inserting=*/false);
}

}  // namespace apgre
