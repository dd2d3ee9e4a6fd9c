#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "bcc/queries.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/transform.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

/// Oracle: does removing `a` disconnect u from v in the projection?
bool separates_bruteforce(const CsrGraph& g, Vertex a, Vertex u, Vertex v) {
  if (a == u || a == v || u == v) return false;
  const CsrGraph und = g.directed() ? undirected_projection(g) : g;
  // Connected before?
  const ComponentLabels before = connected_components(und);
  if (before.component[u] != before.component[v]) return false;
  EdgeList arcs = und.arcs();
  std::erase_if(arcs, [a](const Edge& e) { return e.src == a || e.dst == a; });
  const CsrGraph without = CsrGraph::from_edges(und.num_vertices(), std::move(arcs), false);
  const ComponentLabels after = connected_components(without);
  return after.component[u] != after.component[v];
}

/// Grade one edit as a batch of one: classify_batch is the only
/// classifier, and a one-op batch gets the exact single-edge grade.
UpdateLocality classify_one(const BlockCutQueries& q, Vertex u, Vertex v,
                            bool inserting) {
  if (q.classify_batch({EdgeOp{u, v, inserting}}).structural) {
    return UpdateLocality::kStructural;
  }
  return inserting ? UpdateLocality::kLocalInsert
                   : UpdateLocality::kLocalDelete;
}

TEST(BlockCutQueries, PathSeparation) {
  const BlockCutQueries q(path(5));
  EXPECT_TRUE(q.separates(2, 0, 4));
  EXPECT_TRUE(q.separates(1, 0, 2));
  EXPECT_FALSE(q.separates(0, 1, 4));  // endpoint is not between
  EXPECT_FALSE(q.separates(3, 0, 2));  // not on the path section
  EXPECT_FALSE(q.separates(2, 2, 4));  // a == u
}

TEST(BlockCutQueries, CycleNeverSeparates) {
  const BlockCutQueries q(cycle(8));
  for (Vertex a = 0; a < 8; ++a) {
    EXPECT_FALSE(q.separates(a, (a + 1) % 8, (a + 7) % 8));
  }
}

TEST(BlockCutQueries, SameBlockOnBarbell) {
  const BlockCutQueries q(barbell(4, 1));
  EXPECT_TRUE(q.same_block(0, 3));    // same clique
  EXPECT_FALSE(q.same_block(0, 5));   // opposite cliques
  EXPECT_TRUE(q.same_block(3, 4));    // bridge block {3,4}; both APs
  EXPECT_TRUE(q.same_block(4, 5));
  EXPECT_FALSE(q.same_block(3, 5));   // different bridge blocks
  EXPECT_TRUE(q.same_block(2, 2));
}

TEST(BlockCutQueries, ConnectedAcrossComponents) {
  const CsrGraph g = CsrGraph::undirected_from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const BlockCutQueries q(g);
  EXPECT_TRUE(q.connected(0, 2));
  EXPECT_FALSE(q.connected(0, 3));
  EXPECT_FALSE(q.connected(0, 5));  // isolated vertex
  EXPECT_TRUE(q.connected(5, 5));
  EXPECT_FALSE(q.separates(1, 0, 3));  // already disconnected
}

TEST(BlockCutQueries, NonArticulationNeverSeparates) {
  const BlockCutQueries q(complete(5));
  for (Vertex a = 0; a < 5; ++a) {
    EXPECT_FALSE(q.separates(a, (a + 1) % 5, (a + 2) % 5));
  }
}

TEST(ClassifyUpdate, ChordInsertBetweenNonApVerticesIsLocal) {
  // Barbell cliques are blocks; 0..3 is one K4. A chord cannot exist in a
  // clique, so use two cycles sharing AP 0 instead.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
          {0, 6}, {6, 7}, {7, 8}, {8, 0}});
  const BlockCutQueries q(g);
  EXPECT_EQ(classify_one(q, 1, 3, true), UpdateLocality::kLocalInsert);
  EXPECT_EQ(classify_one(q, 6, 8, true), UpdateLocality::kLocalInsert);
  // AP endpoint: the insert may merge blocks -> structural.
  EXPECT_EQ(classify_one(q, 0, 2, true), UpdateLocality::kStructural);
  // Endpoints in different blocks -> structural.
  EXPECT_EQ(classify_one(q, 1, 7, true), UpdateLocality::kStructural);
}

TEST(ClassifyUpdate, DenseBlockDeleteIsLocalCycleDeleteIsNot) {
  // K5 on {0..4} sharing AP 0 with cycle {0,5,6}.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      7, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
          {2, 3}, {2, 4}, {3, 4}, {0, 5}, {5, 6}, {6, 0}});
  const BlockCutQueries q(g);
  // K5 minus any edge stays one biconnected component — AP endpoints are
  // fine for deletes (the edge partition is unchanged).
  EXPECT_EQ(classify_one(q, 1, 2, false), UpdateLocality::kLocalDelete);
  EXPECT_EQ(classify_one(q, 0, 3, false), UpdateLocality::kLocalDelete);
  // The triangle {0,5,6} minus an edge is a path: block dissolves.
  EXPECT_EQ(classify_one(q, 5, 6, false), UpdateLocality::kStructural);
}

TEST(ClassifyUpdate, BridgeDeleteIsStructural) {
  const BlockCutQueries q(path(4));
  EXPECT_EQ(classify_one(q, 1, 2, false), UpdateLocality::kStructural);
}

// Satellite regression: the block-cut machinery reasons about undirected
// biconnectivity, so directed graphs must classify conservatively —
// every insert AND delete is structural, never a misrouted local patch.
TEST(ClassifyUpdate, DirectedGraphsAreAlwaysStructural) {
  const CsrGraph g =
      CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, true);
  const BlockCutQueries q(g);
  EXPECT_EQ(classify_one(q, 0, 2, true), UpdateLocality::kStructural);
  EXPECT_EQ(classify_one(q, 0, 1, false), UpdateLocality::kStructural);
  EXPECT_EQ(classify_one(q, 1, 3, true), UpdateLocality::kStructural);
}

// Without patching the block's edge multiset after a local delete, a later
// delete would be classified against stale edges: in K4, after removing
// {0,1}, removing {0,2} leaves vertex 0 with a single neighbour — the
// block dissolves, and only a patched classifier can see that.
TEST(ClassifyUpdate, ApplyLocalUpdateKeepsLaterClassificationsExact) {
  const CsrGraph g = CsrGraph::undirected_from_edges(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  BlockCutQueries q(g);
  ASSERT_EQ(classify_one(q, 0, 1, false), UpdateLocality::kLocalDelete);
  q.apply_local_update(0, 1, /*inserting=*/false);
  // Stale edges would still say K4 minus {0,2} is biconnected.
  EXPECT_EQ(classify_one(q, 0, 2, false), UpdateLocality::kStructural);
  EXPECT_EQ(classify_one(q, 2, 3, false), UpdateLocality::kLocalDelete);
  // Re-inserting {0,1} restores the original multiset and verdicts.
  q.apply_local_update(0, 1, /*inserting=*/true);
  EXPECT_EQ(classify_one(q, 0, 2, false), UpdateLocality::kLocalDelete);
}

// The Solver (bc/bc.hpp) caches a decomposition of the 2-core and only
// patches core-core kLocal updates into it; any update incident to the
// peeled forest must therefore route kStructural so the peel is recomputed. Pin
// that for every peeled vertex: the fringe consists of bridges and
// cut-vertex attachments, which the classifier already grades structural.
TEST(ClassifyUpdate, ForestIncidentUpdatesAreStructuralOnPeeledGraphs) {
  // Dense core (K4) with a chain 0-4-5 and a pendant 6 off vertex 1.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
          {0, 4}, {4, 5}, {1, 6}});
  const PeelResult peel = two_core_peel(g);
  ASSERT_EQ(peel.num_peeled, 3u);
  const BlockCutQueries q(g);
  for (const PeeledVertex& p : peel.forest) {
    // Deleting the edge to the parent severs the subtree: structural.
    EXPECT_EQ(classify_one(q, p.vertex, p.parent, false),
              UpdateLocality::kStructural)
        << "delete at peeled vertex " << p.vertex;
    // Inserting a chord from a peeled vertex into the core crosses blocks
    // (and would pull the vertex into the 2-core): structural.
    for (Vertex core_v = 0; core_v < 4; ++core_v) {
      if (has_arc(g, p.vertex, core_v)) continue;
      EXPECT_EQ(classify_one(q, p.vertex, core_v, true),
                UpdateLocality::kStructural)
          << "insert " << p.vertex << "-" << core_v;
    }
  }
  // Core-side chord stays local — peeling must not widen the fast path's
  // blast radius.
  EXPECT_EQ(classify_one(q, 2, 3, false), UpdateLocality::kLocalDelete);
}

TEST(ClassifyUpdate, CommonBlockOnBarbell) {
  const BlockCutQueries q(barbell(4, 1));
  EXPECT_NE(q.common_block(0, 3), kInvalidVertex);   // same clique
  EXPECT_EQ(q.common_block(0, 5), kInvalidVertex);   // opposite cliques
  EXPECT_NE(q.common_block(3, 4), kInvalidVertex);   // bridge block, two APs
  EXPECT_EQ(q.common_block(3, 5), kInvalidVertex);   // different bridges
}

// ---------------------------------------------------------------------------
// Differential check of classify_batch's block-survival test against an
// oracle that runs biconnected_components on the edited block.

/// Oracle: the block's post-batch edges, as a graph of their own on the
/// members 0..n-1, form one biconnected component spanning all of them.
bool block_survives_oracle(Vertex n, const std::set<Edge>& edges) {
  const CsrGraph h = CsrGraph::undirected_from_edges(
      n, EdgeList(edges.begin(), edges.end()));
  const BiconnectedComponents after = biconnected_components(h);
  return after.num_components == 1 && after.component_vertices[0].size() == n;
}

Edge canonical(Vertex u, Vertex v) {
  return Edge{std::min(u, v), std::max(u, v)};
}

/// A block on vertices 0..n-1 with a triangle {0, n, n+1} hung off vertex 0
/// and a pendant edge {1, n+2}: 0 and 1 are articulation points, and the
/// pendant is a two-vertex bridge block.
CsrGraph with_attachments(Vertex n, const std::set<Edge>& block) {
  EdgeList edges(block.begin(), block.end());
  edges.push_back({0, n});
  edges.push_back({n, n + 1});
  edges.push_back({n + 1, 0});
  edges.push_back({1, n + 2});
  return CsrGraph::undirected_from_edges(n + 3, std::move(edges));
}

std::set<Edge> cycle_block(Vertex n) {
  std::set<Edge> edges;
  for (Vertex v = 0; v < n; ++v) edges.insert(canonical(v, (v + 1) % n));
  return edges;
}

std::set<Edge> cycle_with_chords(Vertex n, Vertex chords, Xoshiro256& rng) {
  std::set<Edge> edges = cycle_block(n);
  for (Vertex c = 0; c < chords; ++c) {
    const auto u = static_cast<Vertex>(rng.bounded(n));
    const auto v = static_cast<Vertex>(rng.bounded(n));
    if (u != v) edges.insert(canonical(u, v));
  }
  return edges;
}

std::set<Edge> grid_block(Vertex rows, Vertex cols) {
  std::set<Edge> edges;
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      const Vertex v = r * cols + c;
      if (c + 1 < cols) edges.insert({v, v + 1});
      if (r + 1 < rows) edges.insert({v, v + cols});
    }
  }
  return edges;
}

std::set<Edge> clique_block(Vertex n) {
  std::set<Edge> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) edges.insert({u, v});
  }
  return edges;
}

/// Random batches into block {0..n-1}: 1-4 deletes of present edges and
/// 0-3 inserts of absent chords between non-articulation members. Each
/// verdict must match the oracle; a local batch is applied (to the
/// queries through apply_local_update), so later batches see its edits.
void survival_trajectory(Vertex n, std::set<Edge> block, std::uint64_t seed) {
  BlockCutQueries q(with_attachments(n, block));
  const Vertex id = q.bcc().any_component[2];
  ASSERT_EQ(q.bcc().component_vertices[id].size(), n);
  Xoshiro256 rng(seed);
  int local = 0;
  int structural = 0;
  for (int step = 0; step < 60; ++step) {
    std::vector<EdgeOp> ops;
    std::set<Edge> after = block;
    const std::vector<Edge> present(block.begin(), block.end());
    const auto deletes = 1 + rng.bounded(4);
    for (std::uint64_t d = 0; d < deletes; ++d) {
      const Edge e = present[rng.bounded(present.size())];
      if (after.erase(e) == 1) ops.push_back(EdgeOp{e.src, e.dst, false});
    }
    const auto inserts = rng.bounded(4);
    for (std::uint64_t i = 0; i < inserts; ++i) {
      const auto u = static_cast<Vertex>(2 + rng.bounded(n - 2));
      const auto v = static_cast<Vertex>(2 + rng.bounded(n - 2));
      const Edge e = canonical(u, v);
      if (u == v || block.count(e) != 0 || !after.insert(e).second) continue;
      ops.push_back(EdgeOp{v, u, true});
    }
    const bool expected = block_survives_oracle(n, after);
    const BatchClassification c = q.classify_batch(ops);
    ASSERT_EQ(!c.structural, expected) << "step " << step;
    if (c.structural) {
      ++structural;
      continue;
    }
    ++local;
    ASSERT_EQ(c.groups.size(), 1u);
    EXPECT_EQ(c.groups[0].block, id);
    for (const EdgeOp& op : ops) q.apply_local_update(op.u, op.v, op.insert);
    block = std::move(after);
    const auto& stored = q.bcc().component_edges[id];
    ASSERT_EQ(std::set<Edge>(stored.begin(), stored.end()), block);
  }
  // The trajectory must exercise both verdicts to test anything.
  EXPECT_GT(local, 0);
  EXPECT_GT(structural, 0);
}

TEST(BlockSurvival, CyclesWithChordsMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    const auto n = static_cast<Vertex>(6 + rng.bounded(8));
    survival_trajectory(n, cycle_with_chords(n, n, rng), seed);
  }
}

TEST(BlockSurvival, GridsMatchTheOracle) {
  const std::pair<Vertex, Vertex> shapes[] = {{3, 3}, {3, 5}, {4, 4}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    survival_trajectory(rows * cols, grid_block(rows, cols), rows * 31 + cols);
  }
}

TEST(BlockSurvival, CliquesMatchTheOracle) {
  for (const Vertex n : {4, 5, 7}) {
    SCOPED_TRACE(n);
    survival_trajectory(n, clique_block(n), 100 + n);
  }
}

// The edge cases, each pinned and checked against the oracle. Vertices 0
// and 1 are articulation points (with_attachments), so inserts avoid them.
TEST(BlockSurvival, EdgeCasesMatchTheOracle) {
  const struct {
    const char* name;
    Vertex n;
    std::set<Edge> block;
    std::vector<EdgeOp> ops;
    bool survives;
  } cases[] = {
      {"triangle delete", 3, clique_block(3), {{1, 2, false}}, false},
      {"member left at degree 1", 5, clique_block(5),
       {{4, 2, false}, {4, 3, false}, {0, 4, false}}, false},
      {"member left at degree 2", 5, clique_block(5),
       {{4, 2, false}, {4, 3, false}}, true},
      {"split", 6, cycle_block(6), {{3, 4, false}}, false},
      {"split half repaired", 6, cycle_block(6),
       {{3, 4, false}, {2, 4, true}}, false},
      {"split repaired by same-batch inserts", 6, cycle_block(6),
       {{3, 4, false}, {2, 4, true}, {5, 3, true}}, true},
  };
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    std::set<Edge> after = tc.block;
    for (const EdgeOp& op : tc.ops) {
      const Edge e = canonical(op.u, op.v);
      if (op.insert) {
        after.insert(e);
      } else {
        after.erase(e);
      }
    }
    ASSERT_EQ(block_survives_oracle(tc.n, after), tc.survives);
    const BlockCutQueries q(with_attachments(tc.n, tc.block));
    EXPECT_EQ(!q.classify_batch(tc.ops).structural, tc.survives);
  }
}

TEST(BlockSurvival, TwoVertexBridgeBlockNeverSurvivesADelete) {
  // with_attachments(5, ...) hangs vertex 7 off vertex 1 by a bridge.
  const BlockCutQueries q(with_attachments(5, clique_block(5)));
  const Vertex bridge = q.common_block(1, 7);
  ASSERT_NE(bridge, kInvalidVertex);
  ASSERT_EQ(q.bcc().component_vertices[bridge].size(), 2u);
  EXPECT_FALSE(block_survives_oracle(2, {}));
  EXPECT_TRUE(q.classify_batch({{7, 1, false}}).structural);
  EXPECT_TRUE(q.classify_batch({{1, 7, false}, {2, 3, false}}).structural);
}

class QueriesSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueriesSweep, SeparationMatchesBruteForceOnSampledTriples) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    const BlockCutQueries q(gc.graph);
    const Vertex n = gc.graph.num_vertices();
    Xoshiro256 rng(GetParam());
    for (int trial = 0; trial < 60; ++trial) {
      const auto a = static_cast<Vertex>(rng.bounded(n));
      const auto u = static_cast<Vertex>(rng.bounded(n));
      const auto v = static_cast<Vertex>(rng.bounded(n));
      EXPECT_EQ(q.separates(a, u, v), separates_bruteforce(gc.graph, a, u, v))
          << "a=" << a << " u=" << u << " v=" << v;
    }
  }
}

TEST_P(QueriesSweep, SameBlockMatchesMembership) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    const BlockCutQueries q(gc.graph);
    const auto& bcc = q.bcc();
    const Vertex n = gc.graph.num_vertices();
    Xoshiro256 rng(GetParam() + 1);
    for (int trial = 0; trial < 60; ++trial) {
      const auto u = static_cast<Vertex>(rng.bounded(n));
      const auto v = static_cast<Vertex>(rng.bounded(n));
      bool expected = u == v;
      for (Vertex c = 0; c < bcc.num_components && !expected; ++c) {
        const auto& members = bcc.component_vertices[c];
        expected = std::binary_search(members.begin(), members.end(), u) &&
                   std::binary_search(members.begin(), members.end(), v);
      }
      EXPECT_EQ(q.same_block(u, v), expected) << "u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueriesSweep, ::testing::Values(141, 151, 161));

}  // namespace
}  // namespace apgre
