#include "bc/brandes.hpp"

#include <numeric>

#include "bc/brandes_kernel.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace apgre {

std::vector<double> brandes_bc(const CsrGraph& g) {
  std::vector<Vertex> sources(g.num_vertices());
  std::iota(sources.begin(), sources.end(), 0);
  return brandes_bc_from_sources(g, sources, 1.0);
}

std::vector<double> brandes_bc_from_sources(const CsrGraph& g,
                                            const std::vector<Vertex>& sources,
                                            double source_weight) {
  std::vector<double> bc(g.num_vertices(), 0.0);
  detail::BrandesScratch scratch(g);
  for (Vertex s : sources) {
    APGRE_ASSERT(s < g.num_vertices());
    detail::brandes_iteration(g, s, source_weight, scratch, bc);
  }
  MetricsRegistry& m = metrics();
  m.counter("bc.serial.sources").add(scratch.sources);
  m.counter("bc.serial.traversed_arcs").add(scratch.traversed_arcs);
  m.gauge("bc.serial.forward_seconds").set(scratch.forward_seconds);
  m.gauge("bc.serial.backward_seconds").set(scratch.backward_seconds);
  return bc;
}

std::vector<double> brandes_preds_serial_bc(const CsrGraph& g) {
  const Vertex n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  detail::BrandesScratch scratch(g);
  // Predecessor lists in slots parallel to the in-adjacency (a vertex's
  // predecessors are a subset of its in-neighbours).
  std::vector<Vertex> pred_slots(g.num_arcs());
  std::vector<std::uint32_t> pred_count(n, 0);
  auto& dist = scratch.dist;
  auto& sigma = scratch.sigma;
  auto& delta = scratch.delta;
  auto& queue = scratch.dag.queue;

  for (Vertex s = 0; s < n; ++s) {
    dist[s] = 0;
    sigma[s] = 1.0;
    queue[0] = s;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const Vertex v = queue[head];
      for (Vertex w : g.out_neighbors(v)) {
        if (dist[w] == detail::kUnvisited) {
          dist[w] = dist[v] + 1;
          queue[tail++] = w;
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          pred_slots[g.in_offset(w) + pred_count[w]++] = v;
        }
      }
    }
    scratch.dag.reached = tail;

    // Backward: scatter through the recorded predecessor lists, the source
    // (queue head) excluded.
    for (std::size_t i = tail; i-- > 1;) {
      const Vertex w = queue[i];
      const double coef = (1.0 + delta[w]) / sigma[w];
      for (std::uint32_t p = 0; p < pred_count[w]; ++p) {
        const Vertex v = pred_slots[g.in_offset(w) + p];
        delta[v] += sigma[v] * coef;
      }
      bc[w] += delta[w];
      pred_count[w] = 0;
    }
    scratch.reset_touched();
  }
  return bc;
}

}  // namespace apgre
