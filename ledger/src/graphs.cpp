#include "graphs.hpp"

#include <algorithm>
#include <utility>

#include "bcc/queries.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "support/prng.hpp"

namespace ledger {

using apgre::CsrGraph;
using apgre::Edge;
using apgre::Vertex;

namespace {

Vertex scaled(double scale, Vertex base) {
  return std::max<Vertex>(8, static_cast<Vertex>(static_cast<double>(base) * scale));
}

/// Vertex-disjoint non-AP edges of block `b`, or nothing when `count` of
/// them cannot be deleted together without reshaping the block-cut tree.
std::vector<Edge> chords_in_block(const apgre::BlockCutQueries& queries,
                                  Vertex b, std::size_t count) {
  const apgre::BiconnectedComponents& bcc = queries.bcc();
  std::vector<Edge> pool;
  std::vector<Vertex> used;
  for (const Edge& e : bcc.component_edges[b]) {
    if (pool.size() == count) break;
    if (bcc.is_articulation[e.src] || bcc.is_articulation[e.dst]) continue;
    if (std::find(used.begin(), used.end(), e.src) != used.end() ||
        std::find(used.begin(), used.end(), e.dst) != used.end()) {
      continue;
    }
    pool.push_back(e);
    used.push_back(e.src);
    used.push_back(e.dst);
  }
  if (pool.size() != count ||
      queries.classify_batch(toggle_batch(pool, /*insert=*/false).ops).structural) {
    return {};
  }
  return pool;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return apgre::hash_combine64(seed, tag);
}

// Each analogue is the library's generator for its structural class with
// the attachments bench/workloads.cpp gives it, seeded from `seed`.

CsrGraph social_graph(std::uint64_t seed, double scale) {
  CsrGraph g = apgre::barabasi_albert(scaled(scale, 2800), 8, derive_seed(seed, 1));
  g = apgre::attach_communities(g, scaled(scale, 520), 6, derive_seed(seed, 2));
  g = apgre::attach_chains(g, scaled(scale, 320), 3, derive_seed(seed, 3));
  return apgre::attach_pendants(g, scaled(scale, 2800), derive_seed(seed, 4));
}

CsrGraph road_graph(std::uint64_t seed, double scale) {
  const Vertex side = scaled(scale, 81);
  CsrGraph g = apgre::road_grid(side, side, 0.30, 0.06, derive_seed(seed, 5));
  g = apgre::attach_chains(g, scaled(scale, 210), 2, derive_seed(seed, 6));
  return apgre::attach_pendants(g, scaled(scale, 630), derive_seed(seed, 7));
}

CsrGraph caveman_graph(std::uint64_t seed, double scale) {
  return apgre::caveman(scaled(scale, 1024), 24, derive_seed(seed, 8));
}

std::vector<Tenant> tenant_graphs(std::uint64_t seed, double scale) {
  // {name, core size, core degree, communities, community size, chains of
  // three, pendants}, each analogue at half size.
  struct Shape {
    const char* name;
    Vertex core, degree, communities, community_size, chains, pendants;
  };
  const Shape shapes[] = {
      {"email", 1100, 5, 15, 20, 0, 550},
      {"dblp", 600, 3, 75, 8, 0, 350},
      {"youtube", 1200, 4, 20, 16, 0, 1150},
      {"skewed", 700, 8, 130, 6, 80, 700},
  };
  std::vector<Tenant> tenants;
  std::uint64_t tag = 10;
  for (const Shape& s : shapes) {
    CsrGraph g = apgre::barabasi_albert(scaled(scale, s.core), s.degree,
                                        derive_seed(seed, tag));
    g = apgre::attach_communities(g, scaled(scale, s.communities), s.community_size,
                                  derive_seed(seed, tag + 1));
    if (s.chains > 0) {
      g = apgre::attach_chains(g, scaled(scale, s.chains), 3, derive_seed(seed, tag + 2));
    }
    g = apgre::attach_pendants(g, scaled(scale, s.pendants), derive_seed(seed, tag + 3));
    tenants.push_back({s.name, std::move(g)});
    tag += 4;
  }
  return tenants;
}

std::vector<std::vector<Edge>> local_chords(const CsrGraph& g, std::size_t count) {
  const apgre::BlockCutQueries queries(g);
  const auto& blocks = queries.bcc().component_vertices;
  std::vector<Vertex> order;
  for (Vertex b = 0; b < queries.bcc().num_components; ++b) {
    if (blocks[b].size() >= 2 * count) order.push_back(b);
  }
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return blocks[a].size() < blocks[b].size();
  });
  std::vector<std::vector<Edge>> pools;
  for (const Vertex b : order) {
    std::vector<Edge> pool = chords_in_block(queries, b, count);
    if (!pool.empty()) pools.push_back(std::move(pool));
  }
  return pools;
}

Edge core_cross_edge(const CsrGraph& g) {
  const apgre::BlockCutQueries queries(g);
  const auto& blocks = queries.bcc().component_vertices;
  if (blocks.empty()) return Edge{apgre::kInvalidVertex, apgre::kInvalidVertex};
  const std::vector<Vertex>& core = *std::max_element(
      blocks.begin(), blocks.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  Vertex first = apgre::kInvalidVertex;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) != 1) continue;
    const Vertex host = g.out_neighbors(v)[0];
    if (!std::binary_search(core.begin(), core.end(), host)) continue;
    if (first == apgre::kInvalidVertex) {
      first = v;
    } else if (host != g.out_neighbors(first)[0]) {
      return Edge{first, v};
    }
  }
  return Edge{apgre::kInvalidVertex, apgre::kInvalidVertex};
}

apgre::UpdateRequest toggle_batch(const std::vector<Edge>& edges, bool insert) {
  apgre::UpdateRequest batch;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    apgre::EdgeOp op;
    op.u = edges[i].src;
    op.v = edges[i].dst;
    op.insert = insert;
    op.timestamp = i;
    batch.ops.push_back(op);
  }
  return batch;
}

}  // namespace ledger
