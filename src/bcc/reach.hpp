// alpha/beta reach counts for boundary articulation points (paper §3.1 and
// Algorithm pseudocode step 2):
//   alpha_SGi(a) = #vertices a can reach in G without passing through SGi
//                  (the size of the common sub-DAG outside SGi, root
//                  excluded),
//   beta_SGi(a)  = #vertices that can reach a without passing through SGi
//                  (the number of DAGs sharing the common sub-DAG inside).
//
// Two strategies:
//   * kBfs: restricted forward/reverse BFS per articulation point, exactly
//     as the paper describes. Works for directed and undirected graphs;
//     parallelised across sub-graphs.
//   * kTreeDp: for undirected graphs alpha == beta and both equal a
//     subtree-size expression on the block-cut tree, computable
//     in O(|V|+|E|) total. Used as the default undirected fast path and
//     compared against kBfs by the ablation bench and the test suite.
#pragma once

#include "bcc/partition.hpp"
#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Fill dec.subgraphs[*].alpha / .beta. kAuto selects kTreeDp for
/// undirected inputs and kBfs for directed ones.
///
/// `multiplicity` (optional) weights every vertex as 1 + multiplicity[v]:
/// the phantom-pendant counts folded in by inject_pendant_weights (2-core
/// peel anchors). Reach counts then include the peeled tree vertices each
/// anchor stands in for, except in the one sub-graph that homed them
/// (Subgraph::pendant_weight non-zero there), where they count as inside.
///
/// kBfs spreads its sub-graphs over `sched` (the caller's resolved
/// scheduler).
void compute_reach_counts(
    const CsrGraph& g, Decomposition& dec, ReachMethod method,
    const std::vector<Vertex>* multiplicity = nullptr,
    WorkStealingScheduler& sched = WorkStealingScheduler::shared());

}  // namespace apgre
