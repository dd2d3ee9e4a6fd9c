#include "bcc/queries.hpp"

#include <algorithm>
#include <numeric>

#include "bcc/articulation.hpp"
#include "support/error.hpp"

namespace apgre {

BlockCutQueries::BlockCutQueries(const CsrGraph& g)
    : bcc_(biconnected_components(g)),
      tree_(block_cut_tree(bcc_, g.num_vertices())),
      directed_(g.directed()) {
  const Vertex blocks = tree_.num_blocks();
  const Vertex nodes = blocks + tree_.num_aps();
  parent_.assign(nodes, kInvalidVertex);
  depth_.assign(nodes, 0);
  tree_component_.assign(nodes, kInvalidVertex);

  // Root every tree of the bipartite forest with a BFS.
  std::vector<Vertex> queue;
  std::vector<bool> seen(nodes, false);
  Vertex component = 0;
  auto neighbors = [&](Vertex node, auto&& visit) {
    if (node < blocks) {
      for (Vertex ap : tree_.block_aps[node]) visit(blocks + ap);
    } else {
      for (Vertex block : tree_.ap_blocks[node - blocks]) visit(block);
    }
  };
  for (Vertex root = 0; root < nodes; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    tree_component_[root] = component;
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex node = queue[head];
      neighbors(node, [&](Vertex next) {
        if (!seen[next]) {
          seen[next] = true;
          parent_[next] = node;
          depth_[next] = depth_[node] + 1;
          tree_component_[next] = component;
          queue.push_back(next);
        }
      });
    }
    ++component;
  }
}

Vertex BlockCutQueries::node_of(Vertex v) const {
  const Vertex ap = tree_.ap_index[v];
  if (ap != kInvalidVertex) return tree_.num_blocks() + ap;
  return bcc_.any_component[v];  // kInvalidVertex for isolated vertices
}

Vertex BlockCutQueries::lca(Vertex x, Vertex y) const {
  while (depth_[x] > depth_[y]) x = parent_[x];
  while (depth_[y] > depth_[x]) y = parent_[y];
  while (x != y) {
    x = parent_[x];
    y = parent_[y];
  }
  return x;
}

bool BlockCutQueries::on_path(Vertex node, Vertex x, Vertex y) const {
  // node lies on the x..y tree path iff it is an ancestor of x or y with
  // depth >= depth(lca), and is an ancestor of at least one endpoint.
  const Vertex meet = lca(x, y);
  if (depth_[node] < depth_[meet]) return false;
  auto is_ancestor_of = [&](Vertex descendant) {
    Vertex cur = descendant;
    while (depth_[cur] > depth_[node]) cur = parent_[cur];
    return cur == node;
  };
  return is_ancestor_of(x) || is_ancestor_of(y);
}

bool BlockCutQueries::same_block(Vertex u, Vertex v) const {
  APGRE_ASSERT(u < tree_.ap_index.size() && v < tree_.ap_index.size());
  if (u == v) return true;
  return common_block(u, v) != kInvalidVertex;
}

Vertex BlockCutQueries::common_block(Vertex u, Vertex v) const {
  APGRE_ASSERT(u < tree_.ap_index.size() && v < tree_.ap_index.size());
  APGRE_ASSERT(u != v);
  const Vertex au = tree_.ap_index[u];
  const Vertex av = tree_.ap_index[v];
  if (au == kInvalidVertex && av == kInvalidVertex) {
    const Vertex block = bcc_.any_component[u];
    if (block == kInvalidVertex || block != bcc_.any_component[v]) {
      return kInvalidVertex;
    }
    return block;
  }
  if (au != kInvalidVertex && av != kInvalidVertex) {
    // Intersect the two sorted block lists.
    const auto& bu = tree_.ap_blocks[au];
    const auto& bv = tree_.ap_blocks[av];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < bu.size() && j < bv.size()) {
      if (bu[i] == bv[j]) return bu[i];
      bu[i] < bv[j] ? ++i : ++j;
    }
    return kInvalidVertex;
  }
  // One AP, one plain vertex: check the plain vertex's unique block.
  const Vertex plain = au == kInvalidVertex ? u : v;
  const Vertex ap = au == kInvalidVertex ? av : au;
  const Vertex block = bcc_.any_component[plain];
  if (block == kInvalidVertex) return kInvalidVertex;
  const auto& blocks = tree_.ap_blocks[ap];
  return std::binary_search(blocks.begin(), blocks.end(), block)
             ? block
             : kInvalidVertex;
}

bool BlockCutQueries::block_survives_ops(Vertex b, EdgeList removed,
                                         const EdgeList& added) const {
  const auto& members = bcc_.component_vertices[b];
  const auto n = static_cast<Vertex>(members.size());
  // A two-vertex block is a bridge: deleting its edge disconnects it.
  if (!removed.empty() && n < 3) return false;
  auto local_id = [&](Vertex global) {
    const auto it = std::lower_bound(members.begin(), members.end(), global);
    APGRE_ASSERT(it != members.end() && *it == global);
    return static_cast<Vertex>(it - members.begin());
  };

  // The block's net post-batch edges in local ids: its sorted edge list
  // minus `removed` (sorted too, so one merge walk) plus `added`.
  std::sort(removed.begin(), removed.end());
  const EdgeList& block_edges = bcc_.component_edges[b];
  EdgeList edges;
  edges.reserve(block_edges.size() + added.size());
  auto next_removed = removed.begin();
  for (const Edge& e : block_edges) {
    while (next_removed != removed.end() && *next_removed < e) ++next_removed;
    if (next_removed != removed.end() && *next_removed == e) continue;
    edges.push_back(Edge{local_id(e.src), local_id(e.dst)});
  }
  for (const Edge& e : added) {
    edges.push_back(Edge{local_id(e.src), local_id(e.dst)});
  }

  // Counting-sort adjacency: both arcs of every edge, bucketed by source.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.src + 1];
    ++offsets[e.dst + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<Vertex> targets(offsets[n]);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    targets[cursor[e.src]++] = e.dst;
    targets[cursor[e.dst]++] = e.src;
  }

  // The block survives iff what remains is one biconnected component that
  // spans every member: a DFS from any member reaches them all and meets
  // no cut vertex (with >= 3 vertices that also rules out a member left at
  // degree < 2).
  LowpointScratch scratch;
  scratch.reset(n);
  const LowpointSearch search =
      lowpoint_search(offsets, targets, 0, scratch, /*is_cut=*/nullptr);
  return !search.found_cut && search.reached == n;
}

BatchClassification BlockCutQueries::classify_batch(
    const std::vector<EdgeOp>& ops) const {
  BatchClassification out;
  auto downgrade = [&out]() -> BatchClassification& {
    out.structural = true;
    out.groups.clear();
    return out;
  };
  if (ops.empty()) return out;
  // Directed graphs: conservative. The undirected projection's block
  // structure can survive an update whose directed reachability (and thus
  // the alpha/beta reach counts the localized path reuses) changes.
  if (directed_) return downgrade();

  // Route every op to its common block. An insert with an articulation
  // endpoint may add a bypass that merges blocks, so it downgrades; a
  // chord between two non-articulation vertices of one block cannot
  // create, destroy or merge blocks. Deletes only need a shared block here
  // (articulation endpoints are fine) — survival is judged per *group*
  // below, against the block's net post-batch edge set.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const EdgeOp& op = ops[i];
    APGRE_ASSERT(op.u < tree_.ap_index.size() && op.v < tree_.ap_index.size());
    if (op.u == op.v) return downgrade();
    if (op.insert && (tree_.ap_index[op.u] != kInvalidVertex ||
                      tree_.ap_index[op.v] != kInvalidVertex)) {
      return downgrade();
    }
    const Vertex block = common_block(op.u, op.v);
    if (block == kInvalidVertex) return downgrade();
    // A linear search of the groups so far (at most |ops| of them), not a
    // table over every block of the graph. Groups come out in order of
    // their first op, each op list ascending.
    auto group = std::find_if(
        out.groups.begin(), out.groups.end(),
        [block](const BatchGroup& g) { return g.block == block; });
    if (group == out.groups.end()) {
      group = out.groups.insert(group, BatchGroup{block, {}, false});
    }
    group->ops.push_back(i);
    group->has_delete |= !op.insert;
  }

  // One survival check per block with deletions — the whole-batch
  // amortisation. Insert-only groups are pure chords and always survive.
  for (const BatchGroup& group : out.groups) {
    if (!group.has_delete) continue;
    EdgeList removed;
    EdgeList added;
    for (const std::size_t i : group.ops) {
      const Edge canonical{std::min(ops[i].u, ops[i].v),
                           std::max(ops[i].u, ops[i].v)};
      (ops[i].insert ? added : removed).push_back(canonical);
    }
    if (!block_survives_ops(group.block, std::move(removed), added)) {
      return downgrade();
    }
  }
  return out;
}

void BlockCutQueries::apply_local_update(Vertex u, Vertex v, bool inserting) {
  APGRE_ASSERT(u != v);
  const Vertex block = common_block(u, v);
  APGRE_ASSERT_MSG(block != kInvalidVertex,
                   "apply_local_update on a non-local update");
  auto& edges = bcc_.component_edges[block];
  const Edge canonical{std::min(u, v), std::max(u, v)};
  const auto pos = std::lower_bound(edges.begin(), edges.end(), canonical);
  const bool present = pos != edges.end() && *pos == canonical;
  if (inserting) {
    APGRE_ASSERT_MSG(!present, "apply_local_update: chord already recorded");
    edges.insert(pos, canonical);
  } else {
    APGRE_ASSERT_MSG(present, "apply_local_update: edge not in block");
    edges.erase(pos);
  }
}

bool BlockCutQueries::connected(Vertex u, Vertex v) const {
  if (u == v) return true;
  const Vertex nu = node_of(u);
  const Vertex nv = node_of(v);
  if (nu == kInvalidVertex || nv == kInvalidVertex) return false;
  return tree_component_[nu] == tree_component_[nv];
}

bool BlockCutQueries::separates(Vertex a, Vertex u, Vertex v) const {
  APGRE_ASSERT(a < tree_.ap_index.size());
  if (a == u || a == v || u == v) return false;
  const Vertex ap = tree_.ap_index[a];
  if (ap == kInvalidVertex) return false;  // not an articulation point
  if (!connected(u, v)) return false;      // already apart
  const Vertex nu = node_of(u);
  const Vertex nv = node_of(v);
  const Vertex na = tree_.num_blocks() + ap;
  if (tree_component_[na] != tree_component_[nu]) return false;
  return on_path(na, nu, nv);
}

}  // namespace apgre
