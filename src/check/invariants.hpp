// Internal-consistency invariants for the APGRE decomposition and the
// ApgreStats a betweenness() run reports.
//
// The one decomposition checker: it tests a Decomposition against the
// paper's structural properties (§3.1 properties 1-4 plus the
// BUILDSUBGRAPH bookkeeping) and re-derives every quantity independently —
// naive restricted BFS for alpha/beta, degree and 2-core censuses for
// pendants and the peeled fringe, the standalone articulation finder for AP
// counts — so a bookkeeping bug in partition.cpp or reach.cpp cannot hide
// behind itself.
//
// All checkers return a human-readable list of violations; empty means
// every invariant holds.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "bcc/partition.hpp"
#include "graph/csr.hpp"

namespace apgre {

/// Decomposition invariants:
///  1. sub-graph vertex multiset covers exactly the non-isolated vertices,
///     with Sum_i |V_i| == #non-isolated + Sum_v (copies(v) - 1) and every
///     multi-sub-graph vertex flagged as a boundary AP everywhere,
///  2. every boundary AP is an articulation point of the undirected
///     projection (standalone finder ground truth), and the decomposition's
///     AP counter matches that finder,
///  3. alpha/beta match an independent restricted BFS for up to
///     `max_reach_checks` boundary APs (alpha == beta on undirected inputs),
///  4. roots/removed partition each sub-graph with gamma accounting:
///     Sum gamma == #removed per sub-graph, the global pendant counter adds
///     up, and every removed vertex passes the pendant degree census,
///  5. one sub-graph per biconnected block: as many sub-graphs as blocks,
///     the num_blocks counter matches, and each sub-graph's vertex set is
///     a distinct block's,
///  6. every arc of `g` lies in exactly one sub-graph, and no sub-graph
///     holds an arc `g` lacks,
///  7. on undirected graphs, Sum alpha over a sub-graph's boundary APs plus
///     its vertex count equals the size of its connected component.
std::vector<std::string> check_decomposition_invariants(
    const CsrGraph& g, const Decomposition& dec,
    std::size_t max_reach_checks = static_cast<std::size_t>(-1));

/// ApgreStats invariants against a fresh prepare_apgre(g, opts.partition),
/// the preparation every APGRE solve runs: peeled-vertex count (also
/// against an independent 2-core census), sub-graph / AP / pendant
/// counters, top sub-graph size, the Figure-7 redundancy fractions, and
/// phase-timing sanity (non-negative phases that sum to at most the
/// total).
std::vector<std::string> check_stats_invariants(const CsrGraph& g,
                                                const ApgreStats& stats,
                                                const ApgreOptions& opts = {});

/// Biconnectivity agreement: build the block decomposition with the serial
/// Hopcroft-Tarjan DFS (biconnected_components) and check it against
/// ground truths it shares no code with:
///  1. every edge of the undirected projection lies in exactly one block,
///     and each block's vertex set is exactly its edges' endpoints,
///  2. the articulation flags match the standalone finder
///     (articulation.cpp), and every flagged vertex is in >= 2 blocks,
///  3. the block-cut tree is a forest (acyclic; bipartite by
///     construction), and any_component names a real containing block.
std::vector<std::string> check_decomposition_agreement(const CsrGraph& g);

/// Independent pendant census replicating the partition's classification
/// from degrees alone: directed pendants have no in-arcs and one out-arc;
/// undirected pendants have degree one (K2 keeps the lower id as root).
Vertex pendant_census(const CsrGraph& g);

}  // namespace apgre
