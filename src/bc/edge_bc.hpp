// Edge betweenness centrality — the metric behind Girvan-Newman community
// detection, which the paper's introduction cites as a driving application
// of BC (§1, community detection in social networks).
//
//   EBC(e) = sum over ordered pairs (s, t) of sigma_st(e) / sigma_st
//
// computed with the shared Brandes backward sweep (bc/brandes_kernel.hpp):
// every shortest-path DAG arc (v, w) carries
// sigma_sv * (1 + delta_s(w)) / sigma_sw per source s.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

/// Per-arc scores, parallel to the CSR out-arc array: the score of the
/// k-th out-neighbour of v lives at index g.out_offset(v) + k. For
/// symmetric graphs the conventional undirected edge score is the sum of
/// the two arc scores (each direction counted once).
std::vector<double> edge_betweenness_bc(const CsrGraph& g);

/// Score of arc (v, w); asserts the arc exists.
double arc_score(const CsrGraph& g, const std::vector<double>& scores, Vertex v,
                 Vertex w);

/// The `k` highest-scoring arcs, descending. For symmetric graphs each
/// undirected edge is reported once (as min(src,dst) -> max(src,dst)) with
/// the summed score of both arcs.
std::vector<std::pair<Edge, double>> top_edges(const CsrGraph& g,
                                               const std::vector<double>& scores,
                                               std::size_t k);

}  // namespace apgre
