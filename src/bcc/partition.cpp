#include "bcc/partition.hpp"

#include <algorithm>
#include <numeric>

#include "bcc/bicomp.hpp"
#include "bcc/block_cut_tree.hpp"
#include "bcc/reach.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace apgre {

namespace {

/// Union-find over block ids; the root carries the accumulated vertex count
/// of the group (paper's VSet sizes).
class BlockGroups {
 public:
  explicit BlockGroups(const BiconnectedComponents& bcc)
      : parent_(bcc.num_components), size_(bcc.num_components) {
    std::iota(parent_.begin(), parent_.end(), 0);
    for (Vertex b = 0; b < bcc.num_components; ++b) {
      size_[b] = static_cast<Vertex>(bcc.component_vertices[b].size());
    }
  }

  Vertex find(Vertex b) {
    while (parent_[b] != b) {
      parent_[b] = parent_[parent_[b]];
      b = parent_[b];
    }
    return b;
  }

  /// Merge the group of `child` into the group of `parent`. The shared
  /// articulation point is counted once.
  void merge(Vertex child, Vertex parent) {
    const Vertex c = find(child);
    const Vertex p = find(parent);
    APGRE_ASSERT(c != p);
    parent_[c] = p;
    size_[p] += size_[c] - 1;
  }

  Vertex group_size(Vertex b) { return size_[find(b)]; }

 private:
  std::vector<Vertex> parent_;
  std::vector<Vertex> size_;
};

/// DFS frame over the bipartite block-cut tree; iterates the blocks
/// reachable through each articulation point of `block`. `via_ap` is the
/// AP this block was entered through: its other blocks are siblings (they
/// hang off the parent), so the child must not iterate it.
struct BlockFrame {
  Vertex block;
  Vertex parent;       // parent block (kInvalidVertex for the top block)
  Vertex via_ap;       // AP index used to enter this block, or kInvalidVertex
  std::size_t ap_i;    // index into block_aps[block]
  std::size_t blk_i;   // index into ap_blocks[current ap]
};

/// Paper Algorithm 1 lines 5-25: DFS from the top block, merging small
/// groups into their DFS parent on post-order exit.
void merge_blocks(const BlockCutTree& tree, Vertex top, Vertex threshold,
                  std::vector<bool>& visited, BlockGroups& groups) {
  std::vector<BlockFrame> stack;
  visited[top] = true;
  stack.push_back(BlockFrame{top, kInvalidVertex, kInvalidVertex, 0, 0});

  while (!stack.empty()) {
    BlockFrame& frame = stack.back();
    const auto& aps = tree.block_aps[frame.block];
    bool descended = false;
    while (frame.ap_i < aps.size()) {
      if (aps[frame.ap_i] == frame.via_ap) {
        // Entered through this AP: its other blocks are this block's
        // siblings, owned by the parent.
        ++frame.ap_i;
        frame.blk_i = 0;
        continue;
      }
      const auto& siblings = tree.ap_blocks[aps[frame.ap_i]];
      if (frame.blk_i < siblings.size()) {
        const Vertex next = siblings[frame.blk_i++];
        if (!visited[next]) {
          visited[next] = true;
          stack.push_back(BlockFrame{next, frame.block, aps[frame.ap_i], 0, 0});
          descended = true;
          break;
        }
      } else {
        ++frame.ap_i;
        frame.blk_i = 0;
      }
    }
    if (descended) continue;

    const BlockFrame done = stack.back();
    stack.pop_back();
    if (done.parent == kInvalidVertex) continue;
    const Vertex my_size = groups.group_size(done.block);
    if (done.parent != top && my_size < threshold) {
      groups.merge(done.block, done.parent);
    } else if (done.parent == top && my_size <= 2) {
      groups.merge(done.block, done.parent);
    }
  }
}

/// Pendant classification (paper BUILDSUBGRAPH): directed pendants have no
/// in-arcs and a single out-arc; undirected pendants have degree one with
/// the lower-id endpoint kept as root when two pendants face each other
/// (the K2 component case).
bool is_removed_pendant(const CsrGraph& g, Vertex v) {
  if (g.directed()) {
    return g.in_degree(v) == 0 && g.out_degree(v) == 1;
  }
  if (g.out_degree(v) != 1) return false;
  const Vertex host = g.out_neighbors(v)[0];
  if (g.out_degree(host) == 1) return host < v;  // K2: keep the lower id
  return true;
}

Vertex pendant_host(const CsrGraph& g, Vertex v) { return g.out_neighbors(v)[0]; }

}  // namespace

Decomposition::WorkModel Decomposition::work_model(EdgeId total_arcs) const {
  WorkModel model;
  model.brandes =
      static_cast<double>(num_vertices) * static_cast<double>(total_arcs);
  // sum (|V_i| + phantoms_i) * arcs_i (partial elimination only): each
  // phantom pendant homed in SG_i is a source whose DAG is derived there.
  double all_sources = 0.0;
  for (const Subgraph& sg : subgraphs) {
    const double arcs = static_cast<double>(sg.num_arcs());
    const double phantoms = std::accumulate(sg.pendant_weight.begin(),
                                            sg.pendant_weight.end(), 0.0);
    all_sources += (static_cast<double>(sg.num_vertices()) + phantoms) * arcs;
    model.apgre += static_cast<double>(sg.roots.size()) * arcs;
  }
  if (model.brandes > 0.0) {
    model.partial_redundancy = 1.0 - all_sources / model.brandes;
    model.total_redundancy = (all_sources - model.apgre) / model.brandes;
  }
  return model;
}

Decomposition decompose(const CsrGraph& g, const PartitionOptions& opts,
                        WorkStealingScheduler& sched) {
  // Lets callers (and the Solver-reuse tests) observe how often the
  // expensive decomposition actually runs.
  metrics().counter("bcc.decompositions").add(1);
  BiconnectedComponents bcc;
  {
    APGRE_TRACE_SPAN("bcc/decompose");
    bcc = biconnected_components(g);
  }
  const BlockCutTree tree = block_cut_tree(bcc, g.num_vertices());

  Decomposition dec;
  dec.num_vertices = g.num_vertices();
  dec.num_blocks = bcc.num_components;
  dec.num_articulation_points = tree.num_aps();

  // --- Group blocks (Algorithm 1). One DFS per connected component of the
  // block-cut tree, rooted at the component's largest block.
  BlockGroups groups(bcc);
  {
    std::vector<bool> comp_seen(bcc.num_components, false);
    std::vector<bool> merged(bcc.num_components, false);
    std::vector<Vertex> comp_blocks;
    for (Vertex b = 0; b < bcc.num_components; ++b) {
      if (comp_seen[b]) continue;
      // BFS to enumerate the blocks of this component and find its top.
      comp_blocks.assign(1, b);
      comp_seen[b] = true;
      Vertex top = b;
      for (std::size_t head = 0; head < comp_blocks.size(); ++head) {
        const Vertex cur = comp_blocks[head];
        if (bcc.component_vertices[cur].size() >
            bcc.component_vertices[top].size()) {
          top = cur;
        }
        for (Vertex ap : tree.block_aps[cur]) {
          for (Vertex next : tree.ap_blocks[ap]) {
            if (!comp_seen[next]) {
              comp_seen[next] = true;
              comp_blocks.push_back(next);
            }
          }
        }
      }
      merge_blocks(tree, top, opts.merge_threshold, merged, groups);
    }
  }

  // --- Materialise one Subgraph per group.
  std::vector<Vertex> group_subgraph(bcc.num_components, kInvalidVertex);
  std::vector<std::vector<Vertex>> group_blocks;
  for (Vertex b = 0; b < bcc.num_components; ++b) {
    const Vertex root = groups.find(b);
    if (group_subgraph[root] == kInvalidVertex) {
      group_subgraph[root] = static_cast<Vertex>(group_blocks.size());
      group_blocks.emplace_back();
    }
    group_blocks[group_subgraph[root]].push_back(b);
  }
  const auto num_subgraphs = static_cast<Vertex>(group_blocks.size());

  // Boundary articulation points: APs whose blocks span several groups.
  // boundary_groups_of_ap[a] lists each group in which a is a boundary AP.
  std::vector<std::vector<Vertex>> ap_groups(tree.num_aps());
  for (Vertex a = 0; a < tree.num_aps(); ++a) {
    auto& gs = ap_groups[a];
    for (Vertex block : tree.ap_blocks[a]) {
      gs.push_back(group_subgraph[groups.find(block)]);
    }
    std::sort(gs.begin(), gs.end());
    gs.erase(std::unique(gs.begin(), gs.end()), gs.end());
    if (gs.size() < 2) gs.clear();  // interior to one group: not a boundary AP
  }

  dec.subgraphs.resize(num_subgraphs);
  std::vector<Vertex> global_to_local(g.num_vertices(), kInvalidVertex);

  for (Vertex sgi = 0; sgi < num_subgraphs; ++sgi) {
    Subgraph& sg = dec.subgraphs[sgi];

    // Vertex set: union of the member blocks' vertices.
    for (Vertex block : group_blocks[sgi]) {
      for (Vertex v : bcc.component_vertices[block]) {
        if (global_to_local[v] == kInvalidVertex) {
          global_to_local[v] = 0;  // provisional mark
          sg.to_global.push_back(v);
        }
      }
    }
    std::sort(sg.to_global.begin(), sg.to_global.end());
    for (std::size_t i = 0; i < sg.to_global.size(); ++i) {
      global_to_local[sg.to_global[i]] = static_cast<Vertex>(i);
    }
    const auto local_n = static_cast<Vertex>(sg.to_global.size());

    // Arc set: the original directed arcs over the member blocks' edges.
    EdgeList arcs;
    for (Vertex block : group_blocks[sgi]) {
      for (const Edge& e : bcc.component_edges[block]) {
        const Vertex lu = global_to_local[e.src];
        const Vertex lv = global_to_local[e.dst];
        if (!g.directed()) {
          arcs.push_back(Edge{lu, lv});
          arcs.push_back(Edge{lv, lu});
          continue;
        }
        const auto out_u = g.out_neighbors(e.src);
        if (std::binary_search(out_u.begin(), out_u.end(), e.dst)) {
          arcs.push_back(Edge{lu, lv});
        }
        const auto out_v = g.out_neighbors(e.dst);
        if (std::binary_search(out_v.begin(), out_v.end(), e.src)) {
          arcs.push_back(Edge{lv, lu});
        }
      }
    }
    sg.graph = CsrGraph::from_edges(local_n, std::move(arcs), g.directed());

    // Boundary APs.
    sg.is_boundary_ap.assign(local_n, 0);
    for (Vertex local = 0; local < local_n; ++local) {
      const Vertex ap = tree.ap_index[sg.to_global[local]];
      if (ap == kInvalidVertex) continue;
      const auto& gs = ap_groups[ap];
      if (std::binary_search(gs.begin(), gs.end(), sgi)) {
        sg.is_boundary_ap[local] = 1;
        sg.boundary_aps.push_back(local);
      }
    }

    // Gamma / root set.
    sg.gamma.assign(local_n, 0);
    sg.removed.assign(local_n, 0);
    if (opts.total_redundancy) {
      for (Vertex local = 0; local < local_n; ++local) {
        const Vertex global = sg.to_global[local];
        if (!is_removed_pendant(g, global)) continue;
        const Vertex host = pendant_host(g, global);
        const Vertex host_local = global_to_local[host];
        APGRE_ASSERT_MSG(host_local != kInvalidVertex,
                         "pendant host must share the sub-graph");
        sg.removed[local] = 1;
        ++sg.gamma[host_local];
        ++dec.num_pendants_removed;
      }
    }
    for (Vertex local = 0; local < local_n; ++local) {
      if (!sg.removed[local]) sg.roots.push_back(local);
    }

    sg.alpha.assign(local_n, 0);
    sg.beta.assign(local_n, 0);

    // Reset the scratch map for the next sub-graph.
    for (Vertex v : sg.to_global) global_to_local[v] = kInvalidVertex;
  }

  // Top sub-graph: largest by arc count (ties: vertex count).
  for (std::size_t i = 0; i < dec.subgraphs.size(); ++i) {
    const Subgraph& sg = dec.subgraphs[i];
    const Subgraph& best = dec.subgraphs[dec.top_subgraph];
    if (sg.num_arcs() > best.num_arcs() ||
        (sg.num_arcs() == best.num_arcs() &&
         sg.num_vertices() > best.num_vertices())) {
      dec.top_subgraph = i;
    }
  }

  if (opts.compute_reach) {
    compute_reach_counts(g, dec, opts.reach, nullptr, sched);
  }

  APGRE_LOG(kDebug) << "decompose: " << dec.subgraphs.size() << " subgraphs, "
                    << dec.num_articulation_points << " APs, "
                    << dec.num_pendants_removed << " pendants removed";
  return dec;
}

void inject_pendant_weights(Decomposition& dec,
                            const std::vector<Vertex>& multiplicity) {
  APGRE_ASSERT_MSG(multiplicity.size() == dec.num_vertices,
                   "pendant multiplicities must cover the decomposed graph");
  // A vertex can sit in several sub-graphs (boundary AP); home the phantom
  // pendants in the first one encountered, mirroring how a real pendant
  // block lands in exactly one group.
  std::vector<std::uint8_t> homed(multiplicity.size(), 0);
  for (Subgraph& sg : dec.subgraphs) {
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      const Vertex global = sg.to_global[local];
      const Vertex m = multiplicity[global];
      if (m == 0 || homed[global]) continue;
      homed[global] = 1;
      if (sg.pendant_weight.empty()) sg.pendant_weight.assign(sg.num_vertices(), 0.0);
      sg.pendant_weight[local] = static_cast<double>(m);
      sg.gamma[local] += m;
      dec.num_pendants_removed += m;
    }
  }
}

}  // namespace apgre
