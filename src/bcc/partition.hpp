// Graph decomposition along articulation points — paper Algorithm 1
// (GRAPHPARTITION) plus BUILDSUBGRAPH's gamma / root-set bookkeeping.
//
// The undirected projection is decomposed into biconnected components, and
// every block becomes one Subgraph. Unlike Algorithm 1, no block merges
// into its neighbour (DESIGN.md, "One sub-graph per block"). Each Subgraph
// carries the state the APGRE kernel needs:
//   * its induced directed arcs in local ids,
//   * its boundary articulation points with alpha/beta reach counts,
//   * gamma counts and the root set R (pendants removed).
#pragma once

#include <cstdint>
#include <vector>

#include "bcc/bicomp.hpp"
#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// How alpha/beta reach counts are computed (see reach.hpp).
enum class ReachMethod {
  kAuto,    ///< tree-DP for undirected graphs, BFS for directed ones
  kBfs,     ///< restricted forward/reverse BFS per articulation point
  kTreeDp,  ///< block-cut-tree subtree sizes (undirected inputs only)
};

struct PartitionOptions {
  /// Enable total-redundancy elimination (gamma / pendant removal) and,
  /// in APGRE solves of undirected graphs, the 2-core peel that extends it
  /// to whole trees (bc/apgre.hpp prepare_apgre). Switchable for the
  /// ablation benchmark.
  bool total_redundancy = true;
  /// alpha/beta computation strategy.
  ReachMethod reach = ReachMethod::kAuto;
  /// When false, decompose() leaves alpha/beta zeroed and the caller runs
  /// compute_reach_counts() itself (the APGRE driver does this to time the
  /// two steps separately, as in the paper's Figure 8 breakdown).
  bool compute_reach = true;
  /// Inert: no decomposition reads it, every one runs the serial
  /// Hopcroft-Tarjan DFS (bcc/bicomp.hpp). Kept so that callers which
  /// still forward it to BlockCutQueries compile.
  ParallelDecomposition parallel_decomposition = ParallelDecomposition::kAuto;

  /// Memberwise equality — bc::Solver keys its cached decomposition on this.
  friend bool operator==(const PartitionOptions&,
                         const PartitionOptions&) = default;
};

/// One sub-graph SGi of the decomposition.
struct Subgraph {
  /// Induced graph over the arcs assigned to this sub-graph, in local ids.
  CsrGraph graph;
  /// local id -> global id.
  std::vector<Vertex> to_global;
  /// Local ids of the boundary articulation points (A_sgi), sorted.
  std::vector<Vertex> boundary_aps;
  /// Per local vertex: 1 iff boundary AP.
  std::vector<std::uint8_t> is_boundary_ap;
  /// alpha_SGi(a): vertices a reaches outside SGi (0 for non-boundary).
  std::vector<std::uint64_t> alpha;
  /// beta_SGi(a): vertices reaching a from outside SGi (0 for non-boundary).
  std::vector<std::uint64_t> beta;
  /// gamma_SGi(s): number of pendant DAGs derived from D_s.
  std::vector<Vertex> gamma;
  /// Per local vertex: 1 iff removed from the root set as a pendant.
  std::vector<std::uint8_t> removed;
  /// Root set R_sgi (local ids of sources whose DAGs are built), sorted.
  std::vector<Vertex> roots;
  /// Derived pendant multiplicity folded at each local vertex (empty =
  /// none). Set by inject_pendant_weights: the vertex stands in for this
  /// many phantom depth-1 pendants, which the scoring kernels account as
  /// extra targets and the self/interior bonus terms — without the pendant
  /// vertices ever entering a BFS.
  std::vector<double> pendant_weight;

  Vertex num_vertices() const { return graph.num_vertices(); }
  EdgeId num_arcs() const { return graph.num_arcs(); }
};

struct Decomposition {
  /// One sub-graph per biconnected block, ordered by the blocks' two
  /// lowest vertex ids (a local batch keeps every index).
  std::vector<Subgraph> subgraphs;
  /// Index of the largest sub-graph (by arc count) — the paper's "top
  /// sub-graph", which dominates APGRE's runtime (Fig. 8, Table 4). Ties
  /// break as top_subgraph_beats says.
  std::size_t top_subgraph = 0;
  /// Global structure counters.
  Vertex num_articulation_points = 0;
  Vertex num_blocks = 0;
  Vertex num_pendants_removed = 0;
  /// Global vertex count of the decomposed graph (isolated vertices are in
  /// no sub-graph but still count here).
  Vertex num_vertices = 0;

  /// Work model used for the Figure-7 redundancy breakdown, in units of
  /// source x arc: Brandes does num_vertices * total_arcs (pass the input
  /// graph's arcs); APGRE does sum_i |R_i| * arcs_i. Phantom pendants
  /// (Subgraph::pendant_weight) count as derived sources of their home
  /// sub-graph, so a peeled fringe lands in total_redundancy.
  struct WorkModel {
    double brandes = 0.0;           ///< |V| * |arcs|
    double apgre = 0.0;             ///< sum |R_i| * arcs_i
    double partial_redundancy = 0;  ///< fraction of brandes removed by sub-DAG reuse
    double total_redundancy = 0;    ///< fraction removed by pendant derivation
  };
  WorkModel work_model(EdgeId total_arcs) const;
};

/// The top sub-graph's rule: sub-graph i beats j with more arcs, then more
/// vertices, then the lower index, so the winner does not depend on the
/// order sub-graphs are compared in.
bool top_subgraph_beats(const std::vector<Subgraph>& subgraphs, std::size_t i,
                        std::size_t j);

/// Decompose `g` and (unless opts.reach == kAuto semantics dictate
/// otherwise) fill in alpha/beta. Runs per connected component of the
/// undirected projection; vertices with no arcs are skipped. The blocks
/// come from the serial Hopcroft-Tarjan DFS (biconnected_components); their
/// sub-graphs are built on `sched`, and so is BFS reach counting.
Decomposition decompose(
    const CsrGraph& g, const PartitionOptions& opts = {},
    WorkStealingScheduler& sched = WorkStealingScheduler::shared());

/// Fold per-vertex phantom-pendant multiplicities into an existing
/// decomposition (the 2-core peel's anchor weights: each anchor stands in
/// for `multiplicity[v]` peeled tree vertices). For every vertex with a
/// non-zero multiplicity, exactly one sub-graph containing it — its "home"
/// — absorbs the weight into gamma and Subgraph::pendant_weight; every
/// other sub-graph sees the phantoms as outside vertices through the
/// weighted reach counts. Call BEFORE compute_reach_counts (pass the same
/// multiplicities there). Vertices absent from every sub-graph (isolated)
/// must have zero multiplicity.
void inject_pendant_weights(Decomposition& dec,
                            const std::vector<Vertex>& multiplicity);

}  // namespace apgre
