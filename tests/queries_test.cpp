#include <gtest/gtest.h>

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
