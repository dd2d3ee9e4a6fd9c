// Scheduler-native parallel biconnected components (Tarjan-Vishkin shape,
// PASGAL fast-bcc refinement).
//
// The serial Hopcroft-Tarjan DFS in bicomp.cpp is inherently sequential —
// once scoring went reentrant and scheduler-native it became the Amdahl
// bottleneck of every cold decomposition. This pass replaces the DFS with
// work that parallelises level by level:
//
//   1. parallel BFS spanning forest (CAS claims on parent[]),
//   2. euler-tour ranks first/last over the forest via two level sweeps
//      (subtree sizes bottom-up, preorder numbers top-down),
//   3. per-vertex low/high tags (min/max preorder reachable from the
//      subtree through any incident edge) via parallel_for,
//   4. a skeleton graph over the non-root vertices — vertex v stands for
//      its tree edge (parent(v), v) — whose connected components are
//      exactly the biconnected components:
//        rule 1: a non-tree edge {u, x} joins u ~ x,
//        rule 2: a tree child w of a non-root v joins w ~ v iff some edge
//                escapes subtree(w) past subtree(v)
//                (low[w] < first[v] or high[w] > last[v]).
//
// Both rules rely on a BFS-forest property of simple graphs: every
// non-tree edge joins two *unrelated* vertices (levels differ by at most
// one, and a depth-one ancestor edge would be a parent duplicate, which
// CsrGraph::from_edges removes), so subtree membership is one interval
// test on the euler ranks.
//
// Canonical numbering. Block discovery order is scheduler-dependent, so
// the result is renumbered by canonicalize_blocks() before it is returned:
// blocks sort by their sorted vertex lists (equivalently by min member id —
// two distinct blocks share at most one vertex, so no ties), and
// any_component[v] becomes the smallest block containing v. Downstream
// consumers (partition.cpp grouping, queries.cpp, caches keyed on block
// ids) therefore see one deterministic structure regardless of worker
// count or interleaving. The serial path's output is *not* canonical;
// differential tests canonicalize both sides before comparing.
#pragma once

#include "bcc/bicomp.hpp"
#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Decomposition-strategy knob (PartitionOptions::parallel_decomposition,
/// ServiceOptions::parallel_decomposition).
enum class ParallelDecomposition {
  kAuto,  ///< parallel when the undirected projection clears the threshold
  kOn,    ///< always parallel (directed inputs still fall back to serial)
  kOff,   ///< always the serial Hopcroft-Tarjan DFS
};

/// kAuto switches to the parallel pass at this vertex count. Small graphs
/// decompose in microseconds serially; below this the parallel_for setup
/// dominates.
inline constexpr Vertex kParallelDecompositionAutoThreshold = 16384;

/// Shared gate: does `mode` select the parallel pass for `g`? Directed
/// graphs never do (the pass itself would fall back to serial anyway; the
/// gate lets callers skip the projection and count the fallback once).
bool use_parallel_decomposition(ParallelDecomposition mode, const CsrGraph& g);

/// Renumber `bcc` into canonical order: blocks sorted by their (sorted)
/// vertex lists, any_component[v] = the smallest block containing v.
/// Idempotent; is_articulation is untouched (it is numbering-free).
void canonicalize_blocks(BiconnectedComponents& bcc);

/// Parallel biconnected components of the undirected projection of `g`,
/// in canonical numbering. Structure-identical to canonicalize_blocks()
/// applied to the serial biconnected_components(g): same blocks (vertex
/// and edge sets), same articulation flags, same any_component. Directed
/// inputs take the serial path on the projection (canonicalized), counted
/// by bcc.parallel.fallbacks. Every loop runs on `sched`.
BiconnectedComponents parallel_biconnected_components(
    const CsrGraph& g,
    WorkStealingScheduler& sched = WorkStealingScheduler::shared());

}  // namespace apgre
