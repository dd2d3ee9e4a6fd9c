#include "bcc/reach.hpp"

#include <algorithm>
#include <cstdint>
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

struct TreeDp {
  // Node ids: [0, S) sub-graphs, [S, S + A) AP nodes.
  std::vector<std::vector<Vertex>> adjacency;
  std::vector<std::uint64_t> weight;
  std::vector<std::uint64_t> subtree;
  std::vector<Vertex> parent;
  std::vector<std::uint64_t> component_total;  // per node: total of its tree
};

void reach_by_tree_dp(const CsrGraph& g, Decomposition& dec) {
  APGRE_ASSERT_MSG(!g.directed(), "tree-DP reach requires an undirected graph");
  const auto num_subgraphs = static_cast<Vertex>(dec.subgraphs.size());

  // Collect boundary-AP vertices and give them node ids.
  std::vector<Vertex> ap_node(g.num_vertices(), kInvalidVertex);
  Vertex num_ap_nodes = 0;
  for (const Subgraph& sg : dec.subgraphs) {
    for (Vertex local : sg.boundary_aps) {
      Vertex& id = ap_node[sg.to_global[local]];
      if (id == kInvalidVertex) id = num_ap_nodes++;
    }
  }

  TreeDp dp;
  const Vertex num_nodes = num_subgraphs + num_ap_nodes;
  dp.adjacency.resize(num_nodes);
  dp.weight.assign(num_nodes, 0);
  dp.subtree.assign(num_nodes, 0);
  dp.parent.assign(num_nodes, kInvalidVertex);
  dp.component_total.assign(num_nodes, 0);

  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    dp.weight[sgi] = sg.to_global.size() - sg.boundary_aps.size();
    // Phantom pendants (2-core peel) count as private vertices of the
    // sub-graph that homed them; every other sub-graph then sees them on the
    // correct side of the block-cut tree automatically.
    for (double pw : sg.pendant_weight) {
      dp.weight[sgi] += static_cast<std::uint64_t>(pw);
    }
    for (Vertex local : sg.boundary_aps) {
      const Vertex node = num_subgraphs + ap_node[sg.to_global[local]];
      dp.adjacency[sgi].push_back(node);
      dp.adjacency[node].push_back(sgi);
      dp.weight[node] = 1;
    }
  }

  // Iterative DFS per component: compute subtree sums, parents, totals.
  std::vector<std::uint8_t> seen(num_nodes, 0);
  std::vector<std::pair<Vertex, std::size_t>> stack;  // (node, next child idx)
  std::vector<Vertex> component_nodes;
  for (Vertex root = 0; root < num_nodes; ++root) {
    if (seen[root]) continue;
    component_nodes.clear();
    seen[root] = 1;
    stack.assign(1, {root, 0});
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < dp.adjacency[node].size()) {
        const Vertex child = dp.adjacency[node][next++];
        if (!seen[child]) {
          seen[child] = 1;
          dp.parent[child] = node;
          stack.push_back({child, 0});
        }
      } else {
        dp.subtree[node] = dp.weight[node];
        for (Vertex child : dp.adjacency[node]) {
          if (dp.parent[child] == node) dp.subtree[node] += dp.subtree[child];
        }
        component_nodes.push_back(node);
        stack.pop_back();
      }
    }
    const std::uint64_t total = dp.subtree[root];
    for (Vertex node : component_nodes) dp.component_total[node] = total;
  }

  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    Subgraph& sg = dec.subgraphs[sgi];
    for (Vertex local : sg.boundary_aps) {
      const Vertex node = num_subgraphs + ap_node[sg.to_global[local]];
      std::uint64_t far = 0;
      if (dp.parent[node] == sgi) {
        far = dp.subtree[node];  // AP hangs below this sub-graph
      } else {
        APGRE_ASSERT(dp.parent[sgi] == node);
        far = dp.component_total[sgi] - dp.subtree[sgi];
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
