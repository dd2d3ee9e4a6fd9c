// Weighted betweenness centrality — the extension the paper defers to
// related work (§6, Edmonds et al.). Three algorithms:
//
//   * weighted_naive_bc    Floyd-Warshall path-counting oracle, O(|V|^3)
//   * weighted_brandes_bc  Dijkstra-based Brandes (Brandes 2001 §4)
//   * weighted_apgre_bc    APGRE with a Dijkstra kernel: the articulation-
//                          point decomposition, alpha/beta reach counts and
//                          the four dependency types are all weight-
//                          agnostic (they depend on connectivity only), so
//                          the redundancy elimination carries over — only
//                          the per-source traversal changes.
//
// All arc weights must be strictly positive (sigma counting over a settled
// Dijkstra order requires it), and path lengths are compared exactly, so
// weights should be integer-valued doubles (see graph/weighted.hpp).
#pragma once

#include <vector>

#include "bc/apgre.hpp"
#include "graph/weighted.hpp"

namespace apgre {

std::vector<double> weighted_naive_bc(const WeightedCsrGraph& g);

std::vector<double> weighted_brandes_bc(const WeightedCsrGraph& g);

/// Sub-graphs spread over the scheduler select_scheduler(sched) picks.
std::vector<double> weighted_apgre_bc(const WeightedCsrGraph& g,
                                      const ApgreOptions& opts = {},
                                      ApgreStats* stats = nullptr,
                                      const SchedulerOptions& sched = {});

}  // namespace apgre
