#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bcc/partition.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

/// Invariants of a valid decomposition (paper §3.1 properties 3-4 plus the
/// BUILDSUBGRAPH bookkeeping).
void check_invariants(const CsrGraph& g, const PartitionOptions& opts) {
  const Decomposition dec = decompose(g, opts);
  const CsrGraph u = undirected_projection(g);

  // 1. Every original arc is assigned to exactly one sub-graph.
  std::map<Edge, int> arc_count;
  for (const Edge& e : g.arcs()) arc_count[e] = 0;
  for (const Subgraph& sg : dec.subgraphs) {
    for (const Edge& local : sg.graph.arcs()) {
      const Edge global{sg.to_global[local.src], sg.to_global[local.dst]};
      ASSERT_TRUE(arc_count.contains(global));
      ++arc_count[global];
    }
  }
  for (const auto& [e, count] : arc_count) {
    EXPECT_EQ(count, 1) << "arc " << e.src << "->" << e.dst;
  }

  // 2. Every non-isolated vertex appears in >= 1 sub-graph; non-boundary
  //    vertices in exactly one.
  std::vector<int> membership(g.num_vertices(), 0);
  std::vector<int> boundary_membership(g.num_vertices(), 0);
  for (const Subgraph& sg : dec.subgraphs) {
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      ++membership[sg.to_global[local]];
      if (sg.is_boundary_ap[local]) ++boundary_membership[sg.to_global[local]];
    }
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (u.out_degree(v) == 0) {
      EXPECT_EQ(membership[v], 0);
    } else if (membership[v] > 1) {
      // Shared vertices must be boundary APs everywhere they appear.
      EXPECT_EQ(boundary_membership[v], membership[v]) << "vertex " << v;
    }
  }
  EXPECT_EQ(dec.subgraphs.size(), dec.num_blocks);  // one per block

  // 3. Roots + removed = all sub-graph vertices; gamma sums to removed.
  for (const Subgraph& sg : dec.subgraphs) {
    Vertex gamma_sum = 0;
    Vertex removed_count = 0;
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      gamma_sum += sg.gamma[local];
      removed_count += sg.removed[local];
      if (sg.removed[local]) {
        EXPECT_EQ(sg.gamma[local], 0u);
      }
    }
    EXPECT_EQ(gamma_sum, removed_count);
    EXPECT_EQ(sg.roots.size() + removed_count, sg.num_vertices());
    for (Vertex root : sg.roots) EXPECT_FALSE(sg.removed[root]);
  }

  // 4. alpha sums: for each sub-graph, the alphas of its boundary APs add
  //    up to the vertices of its component outside the sub-graph.
  const ComponentLabels comp = connected_components(u);
  std::vector<std::uint64_t> comp_size(comp.num_components, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (u.out_degree(v) > 0) ++comp_size[comp.component[v]];
  }
  if (!g.directed()) {
    for (const Subgraph& sg : dec.subgraphs) {
      if (sg.num_vertices() == 0) continue;
      std::uint64_t alpha_sum = 0;
      for (Vertex a : sg.boundary_aps) {
        alpha_sum += sg.alpha[a];
        EXPECT_EQ(sg.alpha[a], sg.beta[a]);  // undirected symmetry
        EXPECT_GE(sg.alpha[a], 1u);          // something hangs off a boundary AP
      }
      const Vertex c = comp.component[sg.to_global[0]];
      EXPECT_EQ(alpha_sum + sg.num_vertices(), comp_size[c]);
    }
  }

  // 5. Pendant accounting matches graph degrees when enabled.
  if (opts.total_redundancy) {
    Vertex expected_pendants = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (g.directed()) {
        if (g.in_degree(v) == 0 && g.out_degree(v) == 1) ++expected_pendants;
      } else if (g.out_degree(v) == 1) {
        const Vertex host = g.out_neighbors(v)[0];
        if (g.out_degree(host) != 1 || host < v) ++expected_pendants;
      }
    }
    EXPECT_EQ(dec.num_pendants_removed, expected_pendants);
  } else {
    EXPECT_EQ(dec.num_pendants_removed, 0u);
  }
}

TEST(Partition, CycleIsSingleSubgraph) {
  const Decomposition dec = decompose(cycle(10));
  ASSERT_EQ(dec.subgraphs.size(), 1u);
  EXPECT_TRUE(dec.subgraphs[0].boundary_aps.empty());
  EXPECT_EQ(dec.subgraphs[0].roots.size(), 10u);
}

TEST(Partition, StarSplitsIntoOneSubgraphPerLeaf) {
  // Every edge of a star is a block of its own: 19 two-vertex sub-graphs,
  // each with the centre as boundary AP and sole root.
  const Decomposition dec = decompose(star(20));
  ASSERT_EQ(dec.subgraphs.size(), 19u);
  EXPECT_EQ(dec.num_blocks, 19u);
  EXPECT_EQ(dec.num_pendants_removed, 19u);
  for (const Subgraph& sg : dec.subgraphs) {
    ASSERT_EQ(sg.num_vertices(), 2u);
    ASSERT_EQ(sg.roots.size(), 1u);
    EXPECT_EQ(sg.to_global[sg.roots[0]], 0u);
    EXPECT_EQ(sg.gamma[sg.roots[0]], 1u);
    EXPECT_EQ(sg.boundary_aps, std::vector<Vertex>{sg.roots[0]});
  }
}

TEST(Partition, BarbellSplitsAtItsArticulationPoints) {
  // Two K8s joined by one bridge: three blocks, two APs.
  const Decomposition dec = decompose(barbell(8, 0));
  EXPECT_EQ(dec.subgraphs.size(), 3u);
  EXPECT_EQ(dec.num_articulation_points, 2u);
}

TEST(Partition, BarbellBridgeChainIsOneSubgraphPerEdge) {
  // barbell(8, 4): the two cliques and the five bridges of the chain
  // between them are seven blocks, and each is its own sub-graph, however
  // small; every bridge's two ends are boundary APs.
  const Decomposition dec = decompose(barbell(8, 4));
  ASSERT_EQ(dec.subgraphs.size(), 7u);
  std::multiset<Vertex> sizes;
  for (const Subgraph& sg : dec.subgraphs) {
    sizes.insert(sg.num_vertices());
    if (sg.num_vertices() == 2) {
      EXPECT_EQ(sg.boundary_aps.size(), 2u);
    }
  }
  EXPECT_EQ(sizes, (std::multiset<Vertex>{2, 2, 2, 2, 2, 8, 8}));
}

TEST(Partition, PaperFigure3Decomposition) {
  const Decomposition dec = decompose(paper_figure3());
  // Blocks {2..6}, {6,7,8,9}, {3,10,11,12} and the pendant bridges {0,2},
  // {1,2}. Pendants 0 and 1 are removed, each with gamma(2) = 1 in its own
  // bridge sub-graph; the top block derives none.
  EXPECT_EQ(dec.subgraphs.size(), 5u);
  EXPECT_EQ(dec.num_pendants_removed, 2u);
  int bridges_with_gamma1 = 0;
  for (const Subgraph& sg : dec.subgraphs) {
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      if (sg.to_global[local] != 2) continue;
      if (sg.num_vertices() == 2) {
        EXPECT_EQ(sg.gamma[local], 1u);
        ++bridges_with_gamma1;
      } else {
        EXPECT_EQ(sg.gamma[local], 0u);
      }
    }
  }
  EXPECT_EQ(bridges_with_gamma1, 2);
}

TEST(Partition, TopSubgraphIsLargest) {
  const CsrGraph g = testing::graph_family(5, false)[5].graph;  // BA + pendants
  const Decomposition dec = decompose(g);
  for (const Subgraph& sg : dec.subgraphs) {
    EXPECT_LE(sg.num_arcs(), dec.subgraphs[dec.top_subgraph].num_arcs());
  }
}

TEST(Partition, WorkModelBoundsAreSane) {
  const CsrGraph g =
      attach_pendants(barabasi_albert(300, 2, 3), 100, 4);
  const Decomposition dec = decompose(g);
  const auto model = dec.work_model(g.num_arcs());
  EXPECT_GT(model.brandes, 0.0);
  EXPECT_GT(model.apgre, 0.0);
  EXPECT_LE(model.apgre, model.brandes);
  EXPECT_GE(model.partial_redundancy, 0.0);
  EXPECT_GE(model.total_redundancy, 0.0);
  EXPECT_LE(model.partial_redundancy + model.total_redundancy, 1.0);
  // Each pendant is a two-arc bridge sub-graph whose host derives it, so
  // total redundancy is positive but small; cutting the pendants off the
  // rest of the graph shows as partial redundancy.
  EXPECT_GT(model.total_redundancy, 0.0);
  EXPECT_GT(model.partial_redundancy, 0.05);

  // A k-leaf star: k bridge sub-graphs of 2 arcs, each with one root out
  // of two sources, against Brandes' (k + 1) * 2k. Total redundancy is
  // 2k / (2k(k + 1)) = 1 / (k + 1).
  const CsrGraph s = star(17);
  const auto star_model = decompose(s).work_model(s.num_arcs());
  EXPECT_DOUBLE_EQ(star_model.total_redundancy, 1.0 / 17.0);
}

TEST(Partition, GammaDisabledKeepsAllRoots) {
  PartitionOptions opts;
  opts.total_redundancy = false;
  const Decomposition dec = decompose(star(10), opts);
  ASSERT_EQ(dec.subgraphs.size(), 9u);
  for (const Subgraph& sg : dec.subgraphs) EXPECT_EQ(sg.roots.size(), 2u);
}

TEST(Partition, K2KeepsLowerIdAsRoot) {
  const CsrGraph g = path(2);
  const Decomposition dec = decompose(g);
  ASSERT_EQ(dec.subgraphs.size(), 1u);
  const Subgraph& sg = dec.subgraphs[0];
  ASSERT_EQ(sg.roots.size(), 1u);
  EXPECT_EQ(sg.to_global[sg.roots[0]], 0u);
}

/// (seed, salt, total_redundancy): each seed and salt draw their own
/// corpus.
class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Vertex, bool>> {};

TEST_P(PartitionSweep, InvariantsHoldOnRandomGraphs) {
  const auto [seed, salt, total_redundancy] = GetParam();
  PartitionOptions opts;
  opts.total_redundancy = total_redundancy;
  for (const auto& gc :
       testing::graph_family(seed * 1000 + salt, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    check_invariants(gc.graph, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 13, 23),
                       ::testing::Values<Vertex>(2, 8, 64),
                       ::testing::Bool()));

}  // namespace
}  // namespace apgre
