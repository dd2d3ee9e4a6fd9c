// Constant-ish-time connectivity robustness queries over the block-cut
// tree: "are u and v in a common biconnected component?" and "does removing
// vertex a disconnect u from v?". The power-grid example motivates these —
// contingency questions are separation queries.
#pragma once

#include <cstddef>
#include <vector>

#include "bcc/bicomp.hpp"
#include "bcc/block_cut_tree.hpp"
#include "graph/csr.hpp"
#include "graph/update.hpp"

namespace apgre {

/// How an edge update relates to the block-cut tree (the service layer's
/// invalidation decision, docs/API.md "Update lifecycle"; a batch reports
/// one grade for all its ops, Response::locality).
enum class UpdateLocality {
  /// The block-cut tree provably survives the insertion: the endpoints
  /// already share a biconnected component and neither is an articulation
  /// point, so the new edge is a chord of one block — it cannot create,
  /// destroy or merge blocks, and a cached decomposition stays structurally
  /// valid (only the affected block's induced arcs change).
  kLocalInsert,
  /// The block-cut tree provably survives the deletion: the edge is
  /// interior to one biconnected component with >= 3 vertices and that
  /// block minus the edge is still biconnected, so no block splits, no
  /// vertex gains or loses articulation status, and every alpha/beta reach
  /// count (which depend only on the tree shape and block vertex sets)
  /// survives. Only the affected block's induced arcs change.
  kLocalDelete,
  /// Anything else — the update touches an articulation point, bridges two
  /// biconnected components, splits its block (e.g. any cycle edge), or the
  /// graph is directed (an intra-block directed arc can change directed
  /// reachability counts, so classification is conservative until the
  /// localized path learns directed blocks) — the tree must be recomputed.
  kStructural,
};

/// One affected block of a local batch: every surviving op whose edge lies
/// inside `block`, as indices into the classified op vector.
struct BatchGroup {
  Vertex block = kInvalidVertex;
  std::vector<std::size_t> ops;
  bool has_delete = false;
};

/// Whole-batch verdict (classify_batch): either the batch is provably
/// confined to its groups' blocks — the block-cut tree survives all of it —
/// or any one op poisons the batch structural and `groups` is empty.
struct BatchClassification {
  bool structural = false;
  std::vector<BatchGroup> groups;
};

/// Prebuilt query structure; O(|V|+|E|) construction, O(tree depth) per
/// separation query, O(log deg) per same-block query.
class BlockCutQueries {
 public:
  /// Built from biconnected_components(g), the one block decomposition.
  explicit BlockCutQueries(const CsrGraph& g);
  /// Inert overload: the ParallelDecomposition argument is ignored. Kept
  /// for callers that still forward PartitionOptions::parallel_decomposition.
  BlockCutQueries(const CsrGraph& g, ParallelDecomposition)
      : BlockCutQueries(g) {}

  /// Classify a coalesced batch (at most one op per edge) against the tree
  /// this structure was built from — the only classifier; a single edit is
  /// a batch of one. Groups the ops by their common block, then runs ONE
  /// biconnectivity-survival check per block containing deletions: the
  /// post-batch block (all group deletes removed, all group inserts added)
  /// must still be one biconnected component spanning every member. That
  /// amortises the check over co-located edges, and it is more precise
  /// than grading each op alone — a delete that would split the block can
  /// be repaired by a same-batch insert and still classify local. Any op
  /// that cannot be confined (directed graphs, AP-endpoint or cross-block
  /// inserts, cross-block deletes, a block that does not survive its net
  /// edit) downgrades the whole batch to structural. For undirected graphs
  /// a batch of one is exact: local means a chord between two
  /// non-articulation vertices of one block (kLocalInsert) or a delete
  /// whose block stays biconnected (kLocalDelete).
  BatchClassification classify_batch(const std::vector<EdgeOp>& ops) const;

  /// True iff u and v share a biconnected component (equivalently: at
  /// least two vertex-disjoint paths join them, or they share an edge).
  bool same_block(Vertex u, Vertex v) const;

  /// The unique biconnected component containing both u and v, or
  /// kInvalidVertex when they share none. Unique because two distinct
  /// blocks intersect in at most one vertex — so two distinct vertices
  /// can share at most one block. Requires u != v.
  Vertex common_block(Vertex u, Vertex v) const;

  /// Patch the stored block edge multiset after the caller applied one op
  /// of a batch classify_batch graded local. The block-cut tree survives
  /// such batches by construction, so only the affected block's edge list
  /// changes; patching it keeps later classify_batch verdicts exact without
  /// a rebuild. Calling this for a structural op is a contract violation
  /// (assert).
  void apply_local_update(Vertex u, Vertex v, bool inserting);

  /// True iff removing `a` disconnects u from v. False whenever u and v
  /// are already in different components, or a is not an articulation
  /// point, or a coincides with u or v.
  bool separates(Vertex a, Vertex u, Vertex v) const;

  /// True iff u and v are connected in the undirected projection.
  bool connected(Vertex u, Vertex v) const;

  const BiconnectedComponents& bcc() const { return bcc_; }
  const BlockCutTree& tree() const { return tree_; }

 private:
  /// Bipartite tree node id of a vertex: AP node if articulation,
  /// otherwise its unique block node. kInvalidVertex for isolated vertices.
  Vertex node_of(Vertex v) const;
  /// Walk-up LCA on the rooted bipartite tree.
  Vertex lca(Vertex x, Vertex y) const;
  bool on_path(Vertex node, Vertex x, Vertex y) const;
  /// Is block `b` with `removed` edges taken out and `added` chords put in
  /// still one biconnected component spanning all members? (Edges in
  /// canonical src < dst order; `added` holds edges absent from the block.)
  /// One counting-sort adjacency over the net edges, then one lowpoint DFS
  /// (lowpoint_search) that stops at the first cut vertex: O(block).
  bool block_survives_ops(Vertex b, EdgeList removed,
                          const EdgeList& added) const;

  BiconnectedComponents bcc_;
  BlockCutTree tree_;
  bool directed_ = false;
  // Rooted bipartite forest: blocks [0, B), APs [B, B + A).
  std::vector<Vertex> parent_;
  std::vector<Vertex> depth_;
  std::vector<Vertex> tree_component_;
};

}  // namespace apgre
