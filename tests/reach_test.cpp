#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "bcc/partition.hpp"
#include "bcc/reach.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

/// Brute-force oracle: count vertices reachable from `start` without
/// entering `blocked` (start excluded from the count and allowed).
std::uint64_t oracle_reach(const CsrGraph& g, Vertex start,
                           const std::set<Vertex>& blocked, bool forward) {
  std::set<Vertex> visited{start};
  std::queue<Vertex> queue;
  queue.push(start);
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop();
    const auto neighbors = forward ? g.out_neighbors(v) : g.in_neighbors(v);
    for (Vertex w : neighbors) {
      if (visited.contains(w) || (blocked.contains(w) && w != start)) continue;
      visited.insert(w);
      queue.push(w);
    }
  }
  return visited.size() - 1;
}

void check_against_oracle(const CsrGraph& g, ReachMethod method) {
  PartitionOptions opts;
  opts.reach = method;
  const Decomposition dec = decompose(g, opts);
  for (const Subgraph& sg : dec.subgraphs) {
    const std::set<Vertex> members(sg.to_global.begin(), sg.to_global.end());
    for (Vertex a : sg.boundary_aps) {
      const Vertex global = sg.to_global[a];
      EXPECT_EQ(sg.alpha[a], oracle_reach(g, global, members, true))
          << "alpha of vertex " << global;
      EXPECT_EQ(sg.beta[a], oracle_reach(g, global, members, false))
          << "beta of vertex " << global;
    }
  }
}

TEST(Reach, BarbellAlphaCountsFarSide) {
  const Decomposition dec = decompose(barbell(5, 0));
  // Cliques {0..4} and {5..9}; APs 4 and 5. For the clique sub-graph
  // containing {0..4}, alpha(4) = 5 (the other clique's vertices).
  bool checked = false;
  for (const Subgraph& sg : dec.subgraphs) {
    for (Vertex a : sg.boundary_aps) {
      if (sg.to_global[a] == 4 && sg.num_vertices() == 5) {
        EXPECT_EQ(sg.alpha[a], 5u);
        checked = true;
      }
    }
  }
  EXPECT_TRUE(checked);
}

TEST(Reach, DirectedAlphaBetaDiffer) {
  // 0 <- 1 <- 2 -> 3 -> 4, with a strongly-connected middle block:
  // Build: block {1,2,3} as triangle (symmetric), pendant-ish arcs 1->0, 3->4.
  EdgeList edges{{1, 2}, {2, 1}, {2, 3}, {3, 2}, {1, 3}, {3, 1}, {1, 0}, {3, 4}};
  const CsrGraph g = CsrGraph::from_edges(5, edges, true);
  const Decomposition dec = decompose(g);
  for (const Subgraph& sg : dec.subgraphs) {
    for (Vertex a : sg.boundary_aps) {
      const Vertex global = sg.to_global[a];
      if (global == 1 && sg.num_vertices() >= 3) {
        EXPECT_EQ(sg.alpha[a], 1u);  // 1 reaches 0
        EXPECT_EQ(sg.beta[a], 0u);   // nothing outside reaches 1
      }
      if (global == 3 && sg.num_vertices() >= 3) {
        EXPECT_EQ(sg.alpha[a], 1u);  // 3 reaches 4
        EXPECT_EQ(sg.beta[a], 0u);
      }
    }
  }
}

TEST(Reach, TreeDpRejectsDirectedGraphs) {
  const CsrGraph g = erdos_renyi(20, 40, true, 1);
  Decomposition dec = decompose(g);
  EXPECT_THROW(compute_reach_counts(g, dec, ReachMethod::kTreeDp), Error);
}

TEST(Reach, AutoSelectsPerDirectedness) {
  // Just exercise both paths; correctness is covered by the sweeps.
  const CsrGraph und = barbell(4, 2);
  const CsrGraph dir = erdos_renyi(30, 60, true, 2);
  EXPECT_NO_THROW(decompose(und));
  EXPECT_NO_THROW(decompose(dir));
}

class ReachSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReachSweep, BfsMatchesOracle) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    check_against_oracle(gc.graph, ReachMethod::kBfs);
  }
}

TEST_P(ReachSweep, TreeDpMatchesBfsOnUndirected) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    if (gc.graph.directed()) continue;
    SCOPED_TRACE(gc.name);
    PartitionOptions bfs_opts;
    bfs_opts.reach = ReachMethod::kBfs;
    PartitionOptions dp_opts;
    dp_opts.reach = ReachMethod::kTreeDp;
    const Decomposition a = decompose(gc.graph, bfs_opts);
    const Decomposition b = decompose(gc.graph, dp_opts);
    ASSERT_EQ(a.subgraphs.size(), b.subgraphs.size());
    for (std::size_t i = 0; i < a.subgraphs.size(); ++i) {
      EXPECT_EQ(a.subgraphs[i].alpha, b.subgraphs[i].alpha);
      EXPECT_EQ(a.subgraphs[i].beta, b.subgraphs[i].beta);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachSweep,
                         ::testing::Values(4, 14, 24, 34, 44, 54));

}  // namespace
}  // namespace apgre
