#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bcc/articulation.hpp"
#include "bcc/bicomp.hpp"
#include "bcc/block_cut_tree.hpp"
#include "check/invariants.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

/// Structural invariants every biconnected decomposition must satisfy.
void check_invariants(const CsrGraph& g) {
  const CsrGraph u = undirected_projection(g);
  const BiconnectedComponents bcc = biconnected_components(u);

  // 1. Articulation flags agree with the independent implementation.
  EXPECT_EQ(bcc.is_articulation, articulation_points(u));

  // 2. Every undirected edge appears in exactly one component.
  std::map<Edge, int> edge_count;
  for (const Edge& e : u.arcs()) {
    if (e.src < e.dst) edge_count[e] = 0;
  }
  for (const auto& edges : bcc.component_edges) {
    for (const Edge& e : edges) {
      ASSERT_TRUE(edge_count.contains(e)) << e.src << "-" << e.dst;
      ++edge_count[e];
    }
  }
  for (const auto& [e, count] : edge_count) {
    EXPECT_EQ(count, 1) << "edge " << e.src << "-" << e.dst;
  }

  // 3. Component vertex sets are exactly the endpoints of their edges.
  for (Vertex c = 0; c < bcc.num_components; ++c) {
    std::vector<Vertex> endpoints;
    for (const Edge& e : bcc.component_edges[c]) {
      endpoints.push_back(e.src);
      endpoints.push_back(e.dst);
    }
    std::sort(endpoints.begin(), endpoints.end());
    endpoints.erase(std::unique(endpoints.begin(), endpoints.end()), endpoints.end());
    EXPECT_EQ(bcc.component_vertices[c], endpoints);
  }

  // 4. A non-articulation vertex with edges belongs to exactly one
  //    component; articulation points to at least two.
  std::vector<int> membership(u.num_vertices(), 0);
  for (const auto& vertices : bcc.component_vertices) {
    for (Vertex v : vertices) ++membership[v];
  }
  for (Vertex v = 0; v < u.num_vertices(); ++v) {
    if (u.out_degree(v) == 0) {
      EXPECT_EQ(membership[v], 0);
      EXPECT_EQ(bcc.any_component[v], kInvalidVertex);
    } else if (bcc.is_articulation[v]) {
      EXPECT_GE(membership[v], 2);
    } else {
      EXPECT_EQ(membership[v], 1);
    }
  }

  // 5. The block-cut tree is a forest.
  EXPECT_TRUE(is_forest(block_cut_tree(bcc, u.num_vertices())));
}

/// The decomposition against check_decomposition_agreement's ground
/// truths: edge partition, standalone AP finder, block-cut forest.
void expect_agreement(const CsrGraph& g) {
  const std::vector<std::string> violations = check_decomposition_agreement(g);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: "
      << (violations.empty() ? "" : violations.front());
}

void expect_identical(const BiconnectedComponents& expected,
                      const BiconnectedComponents& actual) {
  ASSERT_EQ(expected.num_components, actual.num_components);
  EXPECT_EQ(expected.component_vertices, actual.component_vertices);
  EXPECT_EQ(expected.component_edges, actual.component_edges);
  EXPECT_EQ(expected.is_articulation, actual.is_articulation);
  EXPECT_EQ(expected.any_component, actual.any_component);
}

TEST(Bicomp, CycleIsOneComponent) {
  const BiconnectedComponents bcc = biconnected_components(cycle(6));
  EXPECT_EQ(bcc.num_components, 1u);
  EXPECT_EQ(bcc.component_vertices[0].size(), 6u);
}

TEST(Bicomp, PathSplitsPerEdge) {
  const BiconnectedComponents bcc = biconnected_components(path(5));
  EXPECT_EQ(bcc.num_components, 4u);
  for (const auto& edges : bcc.component_edges) EXPECT_EQ(edges.size(), 1u);
}

TEST(Bicomp, BarbellHasCliquesAndBridges) {
  // barbell(4, 0): two K4 joined by one bridge edge -> 3 components.
  const BiconnectedComponents bcc = biconnected_components(barbell(4, 0));
  EXPECT_EQ(bcc.num_components, 3u);
  std::vector<std::size_t> sizes;
  for (const auto& vs : bcc.component_vertices) sizes.push_back(vs.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 4, 4}));
}

TEST(Bicomp, PaperFigure3Blocks) {
  const BiconnectedComponents bcc = biconnected_components(paper_figure3());
  // Blocks: {2,3,4,5,6}, {6,7,8,9}, {3,10,11,12}, and bridges {0,2}, {1,2}.
  EXPECT_EQ(bcc.num_components, 5u);
  std::vector<std::size_t> sizes;
  for (const auto& vs : bcc.component_vertices) sizes.push_back(vs.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 4, 4, 5}));
}

TEST(Bicomp, IsolatedVerticesBelongToNoComponent) {
  const CsrGraph g = CsrGraph::undirected_from_edges(4, {{0, 1}});
  const BiconnectedComponents bcc = biconnected_components(g);
  EXPECT_EQ(bcc.num_components, 1u);
  EXPECT_EQ(bcc.any_component[2], kInvalidVertex);
}

TEST(BlockCutTree, StarOfBlocks) {
  // Two triangles sharing vertex 0: block-cut tree = block - AP - block.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}});
  const BiconnectedComponents bcc = biconnected_components(g);
  const BlockCutTree tree = block_cut_tree(bcc, 5);
  EXPECT_EQ(tree.num_blocks(), 2u);
  EXPECT_EQ(tree.num_aps(), 1u);
  EXPECT_EQ(tree.articulation_vertices[0], 0u);
  EXPECT_EQ(tree.ap_blocks[0].size(), 2u);
  EXPECT_TRUE(is_forest(tree));
}

class BicompSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BicompSweep, InvariantsHoldOnRandomGraphs) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    check_invariants(gc.graph);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BicompSweep,
                         ::testing::Values(2, 12, 22, 32, 42, 52, 62, 72));

class BicompLargeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BicompLargeSweep, AgreementHolds) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/false)) {
    SCOPED_TRACE(gc.name);
    expect_agreement(gc.graph);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BicompLargeSweep,
                         ::testing::Values(3, 13, 23, 43));

// ---- large and adversarial shapes ----------------------------------------

TEST(Bicomp, LongPathBeyondRecursionDepth) {
  // Deeper than any reasonable call stack would allow a recursive DFS.
  expect_agreement(path(100000));
}

TEST(Bicomp, LongCycle) { expect_agreement(cycle(50000)); }

TEST(Bicomp, Star) { expect_agreement(star(20000)); }

TEST(Bicomp, Clique) { expect_agreement(complete(80)); }

TEST(Bicomp, CliquesOfCliques) {
  // Caveman cliques chained by bridges, then every clique vertex sprouting
  // a pendant triangle: blocks at two scales sharing many APs.
  const CsrGraph base = caveman(8, 6, 99);
  EdgeList edges = base.arcs();
  Vertex next = base.num_vertices();
  for (Vertex v = 0; v < base.num_vertices(); ++v) {
    edges.push_back(Edge{v, next});
    edges.push_back(Edge{v, static_cast<Vertex>(next + 1)});
    edges.push_back(Edge{next, static_cast<Vertex>(next + 1)});
    next += 2;
  }
  expect_agreement(CsrGraph::undirected_from_edges(next, edges));
}

TEST(Bicomp, DisconnectedForestWithIsolatedVertices) {
  // Three trees and a cycle, separated by gaps of isolated vertices.
  EdgeList edges;
  Vertex base = 3;  // vertices 0..2 isolated
  for (Vertex t = 0; t < 3; ++t) {
    const CsrGraph tree = random_tree(40 + 7 * t, 17 + t);
    for (const Edge& e : tree.arcs()) {
      if (e.src < e.dst) {
        edges.push_back(Edge{static_cast<Vertex>(base + e.src),
                             static_cast<Vertex>(base + e.dst)});
      }
    }
    base += tree.num_vertices() + 2;  // leave 2 isolated vertices behind
  }
  for (Vertex i = 0; i < 5; ++i) {
    edges.push_back(Edge{static_cast<Vertex>(base + i),
                         static_cast<Vertex>(base + (i + 1) % 5)});
  }
  expect_agreement(CsrGraph::undirected_from_edges(base + 5, edges));
}

TEST(Bicomp, SelfLoopAndMultiEdgeInputs) {
  // CsrGraph::from_edges drops self-loops and duplicate arcs; graphs built
  // from dirty edge lists must decompose like their clean counterparts.
  const EdgeList dirty = {{0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 2}, {2, 0},
                          {2, 2}, {3, 3}, {3, 4}, {4, 3}, {4, 3}, {5, 5}};
  const CsrGraph g = CsrGraph::undirected_from_edges(6, dirty);
  expect_agreement(g);
  const CsrGraph clean = CsrGraph::undirected_from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  expect_identical(biconnected_components(clean), biconnected_components(g));
}

TEST(Bicomp, TinyAndDegenerateShapes) {
  expect_agreement(CsrGraph::undirected_from_edges(0, {}));
  expect_agreement(CsrGraph::undirected_from_edges(1, {}));
  expect_agreement(CsrGraph::undirected_from_edges(5, {}));
  expect_agreement(CsrGraph::undirected_from_edges(2, {{0, 1}}));
  expect_agreement(path(3));
  expect_agreement(barbell(4, 2));
  expect_agreement(paper_figure3());  // directed: through the projection
}

TEST(Bicomp, DirectedGraphsDecomposeTheirProjection) {
  const CsrGraph g = rmat(8, 6, 0.57, 0.19, 0.19, /*symmetric=*/false, 5);
  ASSERT_TRUE(g.directed());
  expect_agreement(g);
  expect_identical(biconnected_components(undirected_projection(g)),
                   biconnected_components(g));
}

}  // namespace
}  // namespace apgre
