#include "bc/edge_bc.hpp"

#include <algorithm>

#include "bc/brandes_kernel.hpp"
#include "support/error.hpp"

namespace apgre {

std::vector<double> edge_betweenness_bc(const CsrGraph& g) {
  const Vertex n = g.num_vertices();
  std::vector<double> scores(g.num_arcs(), 0.0);
  detail::BrandesScratch scratch;
  scratch.ensure(n, g.num_arcs());
  const double* sigma = scratch.sigma.data();
  const double* delta = scratch.delta.data();
  const detail::SuccessorDag& dag = scratch.dag;

  for (Vertex s = 0; s < n; ++s) {
    detail::forward_sweep(g, s, scratch.dist.data(), scratch.sigma.data(),
                          scratch.dag);
    // Arc (v, w) carries sigma[v] * (1 + D(w)) / sigma[w], the summand of
    // the vertex recursion; every successor w is swept before v, so its
    // ratio is in delta[w]. Successors are a CSR-order subsequence of v's
    // out-neighbours, so one merge walk finds each one's arc slot.
    detail::backward_sweep(
        dag, sigma, scratch.delta.data(), nullptr,
        [&](std::size_t i, Vertex v, double) {
          const auto neighbors = g.out_neighbors(v);
          const EdgeId base = g.out_offset(v);
          std::size_t j = 0;
          for (EdgeId k = dag.succ_begin(i); k < dag.succ_end[i]; ++k, ++j) {
            const Vertex w = dag.succ[k];
            while (neighbors[j] != w) ++j;
            scores[base + j] += sigma[v] * delta[w];
          }
        });
    scratch.reset_touched(g);
  }
  return scores;
}

double arc_score(const CsrGraph& g, const std::vector<double>& scores, Vertex v,
                 Vertex w) {
  APGRE_ASSERT(scores.size() == g.num_arcs());
  const auto neighbors = g.out_neighbors(v);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), w);
  APGRE_ASSERT_MSG(it != neighbors.end() && *it == w, "arc does not exist");
  return scores[g.out_offset(v) + static_cast<std::size_t>(it - neighbors.begin())];
}

std::vector<std::pair<Edge, double>> top_edges(const CsrGraph& g,
                                               const std::vector<double>& scores,
                                               std::size_t k) {
  APGRE_ASSERT(scores.size() == g.num_arcs());
  std::vector<std::pair<Edge, double>> all;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.out_neighbors(v);
    const EdgeId base = g.out_offset(v);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const Vertex w = neighbors[j];
      if (!g.directed()) {
        if (v > w) continue;  // one entry per undirected edge
        all.emplace_back(Edge{v, w},
                         scores[base + j] + arc_score(g, scores, w, v));
      } else {
        all.emplace_back(Edge{v, w}, scores[base + j]);
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace apgre
