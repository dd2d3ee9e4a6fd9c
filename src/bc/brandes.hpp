// Brandes' sequential algorithm (Brandes 2001), the paper's `serial`
// baseline: one BFS per source recording each vertex's shortest-path DAG
// successors, then the backward sweep every serial kernel shares,
// accumulating dependencies over those lists with one divide per vertex
// (bc/brandes_kernel.hpp). O(|V||E|) time, O(|V|+|E|) space.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

std::vector<double> brandes_bc(const CsrGraph& g);

/// Brandes restricted to a subset of sources, each weighted by
/// `source_weight` (shared by the sampling estimator and tests).
std::vector<double> brandes_bc_from_sources(const CsrGraph& g,
                                            const std::vector<Vertex>& sources,
                                            double source_weight);

}  // namespace apgre
