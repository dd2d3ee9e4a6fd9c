#include "bcc/parallel_bicomp.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/transform.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/sched/scheduler.hpp"
#include "support/trace.hpp"

namespace apgre {

namespace {

/// Serial union-find with path halving over the skeleton pairs the parallel
/// sweeps collect. The pair count is at most |E| + |V|, so this tail stays
/// a small fraction of the BFS/tag work that actually parallelises.
class UnionFind {
 public:
  explicit UnionFind(Vertex n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  Vertex find(Vertex v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  void unite(Vertex a, Vertex b) {
    const Vertex ra = find(a);
    const Vertex rb = find(b);
    if (ra != rb) parent_[ra] = rb;
  }

 private:
  std::vector<Vertex> parent_;
};

struct SkeletonPair {
  Vertex a;
  Vertex b;
};

}  // namespace

bool use_parallel_decomposition(ParallelDecomposition mode, const CsrGraph& g) {
  if (g.directed()) return false;
  switch (mode) {
    case ParallelDecomposition::kOn:
      return true;
    case ParallelDecomposition::kOff:
      return false;
    case ParallelDecomposition::kAuto:
      return g.num_vertices() >= kParallelDecompositionAutoThreshold;
  }
  return false;
}

void canonicalize_blocks(BiconnectedComponents& bcc) {
  const auto blocks = static_cast<std::size_t>(bcc.num_components);
  std::vector<Vertex> order(blocks);
  std::iota(order.begin(), order.end(), 0);
  // component_vertices are sorted ascending (both producers sort them), so
  // lexicographic vector order == order by min member id: two distinct
  // blocks share at most one vertex, so their minima differ unless the
  // shared vertex is both minima — and then the second elements differ.
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return bcc.component_vertices[a] < bcc.component_vertices[b];
  });

  std::vector<std::vector<Vertex>> vertices(blocks);
  std::vector<EdgeList> edges(blocks);
  for (std::size_t pos = 0; pos < blocks; ++pos) {
    vertices[pos] = std::move(bcc.component_vertices[order[pos]]);
    edges[pos] = std::move(bcc.component_edges[order[pos]]);
  }
  bcc.component_vertices = std::move(vertices);
  bcc.component_edges = std::move(edges);

  // any_component: the smallest canonical block containing each vertex
  // (one deterministic choice; consumers only rely on it being *a* block).
  std::fill(bcc.any_component.begin(), bcc.any_component.end(),
            kInvalidVertex);
  for (std::size_t b = blocks; b-- > 0;) {
    for (Vertex v : bcc.component_vertices[b]) {
      bcc.any_component[v] = static_cast<Vertex>(b);
    }
  }
}

BiconnectedComponents parallel_biconnected_components(const CsrGraph& g,
                                                      WorkStealingScheduler& sched) {
  if (g.directed()) {
    // The skeleton rules assume the BFS-forest cross-edge property of an
    // undirected simple graph; directed inputs decompose their projection
    // serially (still canonicalized, so callers see one output contract).
    metrics().counter("bcc.parallel.fallbacks").add();
    BiconnectedComponents bcc = biconnected_components(g);
    canonicalize_blocks(bcc);
    return bcc;
  }

  APGRE_TRACE_SPAN("bcc/parallel_bicomp");
  metrics().counter("bcc.parallel.decompositions").add();

  const Vertex n = g.num_vertices();
  const int slots = sched.num_slots();

  BiconnectedComponents out;
  out.is_articulation.assign(n, false);
  out.any_component.assign(n, kInvalidVertex);
  if (n == 0) return out;

  // ---- 1. Parallel BFS spanning forest ---------------------------------
  // Roots claim themselves (parent == self); frontier expansion claims
  // children with a CAS, so the parent choice is interleaving-dependent —
  // any spanning tree restricted to a BCC spans that BCC, so every choice
  // yields the same blocks, and canonicalize_blocks() fixes the numbering.
  std::vector<std::atomic<Vertex>> claim(n);
  sched.parallel_for(0, n, 0, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t v = lo; v < hi; ++v) {
      claim[static_cast<std::size_t>(v)].store(kInvalidVertex,
                                               std::memory_order_relaxed);
    }
  });

  std::vector<Vertex> level(n, 0);
  std::vector<Vertex> frontier;
  std::vector<Vertex> next_frontier;
  std::vector<std::vector<Vertex>> slot_next(
      static_cast<std::size_t>(slots));
  std::vector<Vertex> bfs_roots;
  Vertex max_level = 0;
  Vertex num_visited = 0;

  for (Vertex root = 0; root < n; ++root) {
    if (g.out_degree(root) == 0) continue;  // isolated: no block
    if (claim[root].load(std::memory_order_relaxed) != kInvalidVertex) {
      continue;
    }
    claim[root].store(root, std::memory_order_relaxed);
    bfs_roots.push_back(root);
    ++num_visited;
    frontier.assign(1, root);
    Vertex depth = 0;
    while (!frontier.empty()) {
      ++depth;
      const auto fsize = static_cast<std::int64_t>(frontier.size());
      sched.parallel_for(0, fsize, 0,
                         [&](std::int64_t lo, std::int64_t hi, int slot) {
        auto& local = slot_next[static_cast<std::size_t>(slot)];
        for (std::int64_t i = lo; i < hi; ++i) {
          const Vertex v = frontier[static_cast<std::size_t>(i)];
          for (Vertex x : g.out_neighbors(v)) {
            Vertex expected = kInvalidVertex;
            if (claim[x].compare_exchange_strong(expected, v,
                                                 std::memory_order_relaxed)) {
              level[x] = depth;  // sole claimer: plain write is race-free
              local.push_back(x);
            }
          }
        }
      });
      next_frontier.clear();
      for (auto& local : slot_next) {
        next_frontier.insert(next_frontier.end(), local.begin(), local.end());
        local.clear();
      }
      frontier.swap(next_frontier);
      num_visited += static_cast<Vertex>(frontier.size());
    }
    max_level = std::max(max_level, depth - 1);
  }

  std::vector<Vertex> parent(n, kInvalidVertex);
  sched.parallel_for(0, n, 0, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto v = static_cast<Vertex>(i);
      parent[v] = claim[v].load(std::memory_order_relaxed);
    }
  });
  const auto is_root = [&](Vertex v) { return parent[v] == v; };
  const auto visited = [&](Vertex v) { return parent[v] != kInvalidVertex; };

  metrics().gauge("bcc.parallel.levels").set(static_cast<double>(max_level + 1));

  // ---- children lists + level buckets (serial counting sorts) ----------
  // Deterministic placement in vertex-id order; O(n) each.
  std::vector<Vertex> child_start(static_cast<std::size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (visited(v) && !is_root(v)) ++child_start[parent[v] + 1];
  }
  std::partial_sum(child_start.begin(), child_start.end(),
                   child_start.begin());
  std::vector<Vertex> child_list(child_start[n]);
  {
    std::vector<Vertex> cursor(child_start.begin(), child_start.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      if (visited(v) && !is_root(v)) child_list[cursor[parent[v]]++] = v;
    }
  }
  const auto children = [&](Vertex v) {
    return std::pair<Vertex, Vertex>(child_start[v], child_start[v + 1]);
  };

  std::vector<Vertex> level_start(static_cast<std::size_t>(max_level) + 2, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (visited(v)) ++level_start[level[v] + 1];
  }
  std::partial_sum(level_start.begin(), level_start.end(),
                   level_start.begin());
  std::vector<Vertex> by_level(num_visited);
  {
    std::vector<Vertex> cursor(level_start.begin(), level_start.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      if (visited(v)) by_level[cursor[level[v]]++] = v;
    }
  }

  // ---- 2. Euler-tour ranks: first/last via two level sweeps ------------
  // Children sit exactly one level below their parent, so a bottom-up
  // sweep has every subtree size ready when its parent runs, and a
  // top-down sweep has every first ready when the children are assigned.
  std::vector<Vertex> subtree(n, 0);
  std::vector<Vertex> first(n, 0);
  for (Vertex l = max_level + 1; l-- > 0;) {
    sched.parallel_for(level_start[l], level_start[l + 1], 0,
                       [&](std::int64_t lo, std::int64_t hi, int) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const Vertex v = by_level[static_cast<std::size_t>(i)];
        Vertex size = 1;
        const auto [cb, ce] = children(v);
        for (Vertex c = cb; c < ce; ++c) size += subtree[child_list[c]];
        subtree[v] = size;
      }
    });
  }
  {
    // Per-tree global offsets in root id order: preorder ranks are unique
    // across the whole forest, so interval tests never cross trees.
    Vertex offset = 0;
    for (Vertex root : bfs_roots) {
      first[root] = offset;
      offset += subtree[root];
    }
    APGRE_ASSERT(offset == num_visited);
  }
  for (Vertex l = 0; l <= max_level; ++l) {
    sched.parallel_for(level_start[l], level_start[l + 1], 0,
                       [&](std::int64_t lo, std::int64_t hi, int) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const Vertex v = by_level[static_cast<std::size_t>(i)];
        Vertex acc = first[v] + 1;
        const auto [cb, ce] = children(v);
        for (Vertex c = cb; c < ce; ++c) {
          const Vertex w = child_list[c];
          first[w] = acc;
          acc += subtree[w];
        }
      }
    });
  }
  const auto last = [&](Vertex v) { return first[v] + subtree[v] - 1; };

  // ---- 3. low/high tags -------------------------------------------------
  // w1/w2: extreme preorder rank among v and all its neighbours. Tree
  // neighbours contribute harmlessly — the rule-2 escape tests are strict
  // comparisons against the *parent's* interval, which parent and child
  // ranks can never win — so no tree/non-tree case split is needed.
  std::vector<Vertex> low(n, 0);
  std::vector<Vertex> high(n, 0);
  sched.parallel_for(0, n, 0, [&](std::int64_t lo_i, std::int64_t hi_i, int) {
    for (std::int64_t i = lo_i; i < hi_i; ++i) {
      const auto v = static_cast<Vertex>(i);
      if (!visited(v)) continue;
      Vertex lo = first[v];
      Vertex hi = first[v];
      for (Vertex x : g.out_neighbors(v)) {
        lo = std::min(lo, first[x]);
        hi = std::max(hi, first[x]);
      }
      low[v] = lo;
      high[v] = hi;
    }
  });
  for (Vertex l = max_level + 1; l-- > 0;) {
    sched.parallel_for(level_start[l], level_start[l + 1], 0,
                       [&](std::int64_t lo_i, std::int64_t hi_i, int) {
      for (std::int64_t i = lo_i; i < hi_i; ++i) {
        const Vertex v = by_level[static_cast<std::size_t>(i)];
        const auto [cb, ce] = children(v);
        for (Vertex c = cb; c < ce; ++c) {
          const Vertex w = child_list[c];
          low[v] = std::min(low[v], low[w]);
          high[v] = std::max(high[v], high[w]);
        }
      }
    });
  }

  // ---- 4. Skeleton edges + connected components ------------------------
  // Vertex v (non-root) stands for its tree edge (parent(v), v); the
  // skeleton's connected components are the biconnected components.
  std::vector<std::vector<SkeletonPair>> slot_pairs(
      static_cast<std::size_t>(slots));
  sched.parallel_for(0, n, 0, [&](std::int64_t lo_i, std::int64_t hi_i,
                                  int slot) {
    auto& local = slot_pairs[static_cast<std::size_t>(slot)];
    for (std::int64_t i = lo_i; i < hi_i; ++i) {
      const auto u = static_cast<Vertex>(i);
      if (!visited(u)) continue;
      // Rule 1: each non-tree edge {u, x} joins u ~ x. In a BFS forest of
      // a simple graph the endpoints are unrelated — and never roots,
      // since every edge at a root is a tree edge (all the root's
      // neighbours are unvisited when it expands).
      for (Vertex x : g.out_neighbors(u)) {
        if (u >= x) continue;  // one undirected edge, one pair
        if (parent[x] == u || parent[u] == x) continue;
        APGRE_ASSERT(first[x] > last(u) || last(x) < first[u]);
        local.push_back(SkeletonPair{u, x});
      }
      // Rule 2: consecutive tree edges (p, v) and (v, u) share a block iff
      // an edge escapes subtree(u) past subtree(v) — some cycle through
      // both tree edges exists exactly then.
      const Vertex v = parent[u];
      if (u == v || is_root(v)) continue;
      if (low[u] < first[v] || high[u] > last(v)) {
        local.push_back(SkeletonPair{u, v});
      }
    }
  });

  UnionFind uf(n);
  for (const auto& local : slot_pairs) {
    for (const SkeletonPair& pair : local) uf.unite(pair.a, pair.b);
  }

  // Dense block ids per union-find class, in ascending representative-child
  // order (still interleaving-dependent via the parent choices; the
  // canonical pass below renumbers).
  std::vector<Vertex> label(n, kInvalidVertex);
  std::vector<Vertex> block_of_class(n, kInvalidVertex);
  Vertex num_blocks = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (!visited(v) || is_root(v)) continue;
    const Vertex rep = uf.find(v);
    if (block_of_class[rep] == kInvalidVertex) {
      block_of_class[rep] = num_blocks++;
    }
    label[v] = block_of_class[rep];
  }

  // ---- Materialise blocks ----------------------------------------------
  // Edge {u, x} lives in the block of its tree edge's child endpoint, or —
  // for non-tree edges — in label(u) == label(x) (rule 1 united them).
  const auto edge_block = [&](Vertex u, Vertex x) {
    if (parent[x] == u) return label[x];
    if (parent[u] == x) return label[u];
    return label[u];
  };

  std::vector<EdgeId> edge_start(static_cast<std::size_t>(num_blocks) + 1, 0);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex x : g.out_neighbors(u)) {
      if (u < x) ++edge_start[edge_block(u, x) + 1];
    }
  }
  std::partial_sum(edge_start.begin(), edge_start.end(), edge_start.begin());
  out.num_components = num_blocks;
  out.component_vertices.resize(num_blocks);
  out.component_edges.resize(num_blocks);
  {
    std::vector<EdgeId> cursor(edge_start.begin(), edge_start.end() - 1);
    std::vector<Edge> all_edges(edge_start[num_blocks]);
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex x : g.out_neighbors(u)) {
        if (u < x) all_edges[cursor[edge_block(u, x)]++] = Edge{u, x};
      }
    }
    sched.parallel_for(0, num_blocks, 1,
                       [&](std::int64_t lo, std::int64_t hi, int) {
      for (std::int64_t b = lo; b < hi; ++b) {
        auto& edges = out.component_edges[static_cast<std::size_t>(b)];
        edges.assign(all_edges.begin() + static_cast<std::ptrdiff_t>(
                                             edge_start[b]),
                     all_edges.begin() + static_cast<std::ptrdiff_t>(
                                             edge_start[b + 1]));
        std::sort(edges.begin(), edges.end());
      }
    });
  }

  // Vertex sets: the k - 1 tree-edge children of a k-vertex block plus
  // their parents (a parent outside the member list is the block's
  // attachment point — pushed per child, deduped by the sort).
  std::vector<Vertex> member_start(static_cast<std::size_t>(num_blocks) + 1,
                                   0);
  for (Vertex v = 0; v < n; ++v) {
    if (label[v] != kInvalidVertex) ++member_start[label[v] + 1];
  }
  std::partial_sum(member_start.begin(), member_start.end(),
                   member_start.begin());
  std::vector<Vertex> members(member_start[num_blocks]);
  {
    std::vector<Vertex> cursor(member_start.begin(), member_start.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      if (label[v] != kInvalidVertex) members[cursor[label[v]]++] = v;
    }
  }
  sched.parallel_for(0, num_blocks, 1,
                     [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t b = lo; b < hi; ++b) {
      auto& vertices = out.component_vertices[static_cast<std::size_t>(b)];
      for (Vertex m = member_start[b]; m < member_start[b + 1]; ++m) {
        const Vertex v = members[m];
        vertices.push_back(v);
        const Vertex p = parent[v];
        if (label[p] != static_cast<Vertex>(b)) vertices.push_back(p);
      }
      std::sort(vertices.begin(), vertices.end());
      vertices.erase(std::unique(vertices.begin(), vertices.end()),
                     vertices.end());
    }
  });

  // Articulation flags: v is an AP iff its incident tree edges span >= 2
  // distinct blocks (roots: >= 2 distinct child blocks; every block at v
  // contains one of v's tree edges, because any spanning tree of the
  // block is made of them). Flags land in a byte buffer first:
  // out.is_articulation is a bit-packed vector<bool>, so concurrent writes
  // to nearby vertices would race on the shared word.
  std::vector<std::uint8_t> ap_flag(static_cast<std::size_t>(n), 0);
  sched.parallel_for(0, n, 0, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto v = static_cast<Vertex>(i);
      if (!visited(v)) continue;
      Vertex base = is_root(v) ? kInvalidVertex : label[v];
      const auto [cb, ce] = children(v);
      for (Vertex c = cb; c < ce; ++c) {
        const Vertex child_label = label[child_list[c]];
        if (base == kInvalidVertex) {
          base = child_label;
        } else if (child_label != base) {
          ap_flag[static_cast<std::size_t>(i)] = 1;
          break;
        }
      }
    }
  });
  for (std::int64_t i = 0; i < n; ++i) {
    if (ap_flag[static_cast<std::size_t>(i)] != 0) {
      out.is_articulation[static_cast<std::size_t>(i)] = true;
    }
  }

  canonicalize_blocks(out);
  metrics().gauge("bcc.parallel.blocks").set(static_cast<double>(num_blocks));
  return out;
}

}  // namespace apgre
