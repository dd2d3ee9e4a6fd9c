#include "bcc/reach.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "support/error.hpp"

namespace apgre {

namespace {

/// Per-slot scratch for the restricted BFS: an epoch-stamped mark array
/// avoids clearing O(|V|) state between the many small searches. Allocated
/// on a slot's first sub-graph, so slots that run nothing cost nothing.
struct BfsScratch {
  std::vector<std::uint64_t> mark;
  std::uint64_t epoch = 0;
  std::vector<Vertex> queue;
};

/// Count vertices reachable from `start` (itself excluded), following
/// out-arcs (forward) or in-arcs (reverse), never entering a vertex whose
/// mark equals `blocked_tag`. With `mult`, every visited vertex w counts as
/// 1 + mult[w] (itself plus its phantom pendants, which hang directly off w
/// and are therefore reachable exactly when w is).
std::uint64_t restricted_reach(const CsrGraph& g, Vertex start, bool forward,
                               std::uint64_t blocked_tag, std::uint64_t visited_tag,
                               BfsScratch& scratch,
                               const std::vector<Vertex>* mult) {
  auto& mark = scratch.mark;
  auto& queue = scratch.queue;
  queue.assign(1, start);
  std::uint64_t count = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const auto neighbors = forward ? g.out_neighbors(v) : g.in_neighbors(v);
    for (Vertex w : neighbors) {
      if (mark[w] == blocked_tag || mark[w] == visited_tag) continue;
      mark[w] = visited_tag;
      queue.push_back(w);
      count += 1 + (mult ? static_cast<std::uint64_t>((*mult)[w]) : 0);
    }
  }
  return count;
}

void reach_by_bfs(const CsrGraph& g, Decomposition& dec,
                  const std::vector<Vertex>* mult, WorkStealingScheduler& sched) {
  std::vector<BfsScratch> scratches(static_cast<std::size_t>(sched.num_slots()));
  // Sub-graphs write only their own alpha/beta, so chunks need no merge.
  sched.parallel_for(
      0, static_cast<std::int64_t>(dec.subgraphs.size()), 1,
      [&](std::int64_t lo, std::int64_t hi, int slot) {
        BfsScratch& scratch = scratches[static_cast<std::size_t>(slot)];
        if (scratch.mark.empty()) scratch.mark.assign(g.num_vertices(), 0);
        for (std::int64_t i = lo; i < hi; ++i) {
          Subgraph& sg = dec.subgraphs[static_cast<std::size_t>(i)];
          if (sg.boundary_aps.empty()) continue;
          const std::uint64_t blocked_tag = ++scratch.epoch;
          for (Vertex v : sg.to_global) scratch.mark[v] = blocked_tag;
          for (Vertex local : sg.boundary_aps) {
            const Vertex global = sg.to_global[local];
            // Phantom pendants hang directly off `global`. They are
            // "outside" every sub-graph except the one that homed them
            // (pendant_weight non-zero there), so from any other sub-graph
            // they join alpha/beta even though the BFS never leaves
            // through them.
            std::uint64_t own = 0;
            if (mult != nullptr && (*mult)[global] > 0 &&
                (sg.pendant_weight.empty() || sg.pendant_weight[local] == 0.0)) {
              own = (*mult)[global];
            }
            sg.alpha[local] =
                own + restricted_reach(g, global, /*forward=*/true, blocked_tag,
                                       ++scratch.epoch, scratch, mult);
            if (g.directed()) {
              sg.beta[local] =
                  own + restricted_reach(g, global, /*forward=*/false,
                                         blocked_tag, ++scratch.epoch, scratch,
                                         mult);
            } else {
              sg.beta[local] = sg.alpha[local];
            }
          }
        }
      });
}

// ---- Tree-DP strategy (undirected) --------------------------------------
//
// Nodes: one per sub-graph, one per boundary-AP vertex; edges between a
// sub-graph and each of its boundary APs. Per connected component this is a
// tree. With node weights
//   w(sub-graph) = |V_sgi| - #boundary APs of sgi   (its private vertices)
//   w(AP)        = 1
// the number of distinct vertices in any connected node subset is the sum
// of its weights. For boundary AP `a` of sub-graph `gi`,
//   alpha_gi(a) = (vertices on the far side of edge (gi, a)) - [a itself]
// which is a subtree weight (or its complement) once the tree is rooted.

void reach_by_tree_dp(const CsrGraph& g, Decomposition& dec) {
  APGRE_ASSERT_MSG(!g.directed(), "tree-DP reach requires an undirected graph");
  const auto num_subgraphs = static_cast<Vertex>(dec.subgraphs.size());

  // One pass over the sub-graphs: sub-graph i's links to its boundary APs
  // are link_ap[link_begin[i] .. link_begin[i + 1]), in boundary_aps order.
  std::vector<std::size_t> link_begin(static_cast<std::size_t>(num_subgraphs) + 1, 0);
  std::vector<Vertex> link_ap;
  link_ap.reserve(2 * static_cast<std::size_t>(num_subgraphs));  // tree bound
  std::vector<std::uint64_t> weight(num_subgraphs);
  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    weight[sgi] = sg.to_global.size() - sg.boundary_aps.size();
    // Phantom pendants (2-core peel) count as private vertices of the
    // sub-graph that homed them; every other sub-graph then sees them on the
    // correct side of the block-cut tree automatically.
    for (double pw : sg.pendant_weight) {
      weight[sgi] += static_cast<std::uint64_t>(pw);
    }
    for (Vertex local : sg.boundary_aps) link_ap.push_back(sg.to_global[local]);
    link_begin[sgi + 1] = link_ap.size();
  }

  // Node ids: [0, S) sub-graphs, then one per boundary-AP vertex, which
  // weighs 1.
  std::vector<Vertex> ap_node(g.num_vertices(), kInvalidVertex);
  Vertex num_nodes = num_subgraphs;
  for (Vertex& a : link_ap) {
    Vertex& id = ap_node[a];
    if (id == kInvalidVertex) id = num_nodes++;
    a = id;
  }
  weight.resize(num_nodes, 1);

  // Flat adjacency: node u's neighbours are adjacency[offsets[u] ..
  // offsets[u + 1]).
  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    offsets[sgi + 1] = link_begin[sgi + 1] - link_begin[sgi];
  }
  for (Vertex node : link_ap) ++offsets[node + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<Vertex> adjacency(offsets.back());
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    for (std::size_t k = link_begin[sgi]; k < link_begin[sgi + 1]; ++k) {
      adjacency[fill[sgi]++] = link_ap[k];
      adjacency[fill[link_ap[k]]++] = sgi;
    }
  }

  // BFS per component for parents and roots, then subtree sums in reverse
  // BFS order: `subtree` starts as the node weights and accumulates.
  std::vector<Vertex> parent(num_nodes, kInvalidVertex);
  std::vector<Vertex> root_of(num_nodes, kInvalidVertex);
  std::vector<Vertex> order;
  order.reserve(num_nodes);
  for (Vertex root = 0; root < num_nodes; ++root) {
    if (root_of[root] != kInvalidVertex) continue;
    root_of[root] = root;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const Vertex node = order[head];
      for (std::size_t j = offsets[node]; j < offsets[node + 1]; ++j) {
        const Vertex next = adjacency[j];
        if (root_of[next] != kInvalidVertex) continue;
        root_of[next] = root;
        parent[next] = node;
        order.push_back(next);
      }
    }
  }
  std::vector<std::uint64_t>& subtree = weight;
  for (std::size_t i = order.size(); i-- > 0;) {
    const Vertex node = order[i];
    if (parent[node] != kInvalidVertex) subtree[parent[node]] += subtree[node];
  }

  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    Subgraph& sg = dec.subgraphs[sgi];
    for (std::size_t i = 0; i < sg.boundary_aps.size(); ++i) {
      const Vertex local = sg.boundary_aps[i];
      const Vertex node = link_ap[link_begin[sgi] + i];
      std::uint64_t far = 0;
      if (parent[node] == sgi) {
        far = subtree[node];  // AP hangs below this sub-graph
      } else {
        APGRE_ASSERT(parent[sgi] == node);
        far = subtree[root_of[sgi]] - subtree[sgi];
      }
      APGRE_ASSERT(far >= 1);  // the AP itself is on the far side
      sg.alpha[local] = far - 1;
      sg.beta[local] = sg.alpha[local];
    }
  }
}

}  // namespace

void compute_reach_counts(const CsrGraph& g, Decomposition& dec,
                          ReachMethod method,
                          const std::vector<Vertex>* multiplicity,
                          WorkStealingScheduler& sched) {
  if (multiplicity != nullptr) {
    APGRE_ASSERT_MSG(multiplicity->size() == g.num_vertices(),
                     "multiplicity size mismatch");
  }
  if (method == ReachMethod::kAuto) {
    method = g.directed() ? ReachMethod::kBfs : ReachMethod::kTreeDp;
  }
  if (method == ReachMethod::kTreeDp) {
    APGRE_REQUIRE(!g.directed(),
                  "ReachMethod::kTreeDp only supports undirected graphs");
    // Weighted counts come in through Subgraph::pendant_weight (the home
    // convention); the raw multiplicity array is only needed by the BFS
    // strategy, which walks the graph directly.
    reach_by_tree_dp(g, dec);
  } else {
    reach_by_bfs(g, dec, multiplicity, sched);
  }
}

}  // namespace apgre
