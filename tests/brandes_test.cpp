#include <gtest/gtest.h>

#include "bc/brandes.hpp"
#include "bc/naive.hpp"
#include "bc/parallel_preds.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

TEST(NaiveBc, PathHasQuadraticProfile) {
  // Ordered-pair convention: interior vertex i of an n-path scores
  // 2 * i * (n - 1 - i).
  const auto bc = naive_bc(path(6));
  for (Vertex i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(bc[i], 2.0 * i * (5.0 - i)) << "vertex " << i;
  }
}

TEST(NaiveBc, StarCentreDominates) {
  const auto bc = naive_bc(star(8));
  EXPECT_DOUBLE_EQ(bc[0], 7.0 * 6.0);  // (n-1)(n-2) ordered pairs
  for (Vertex v = 1; v < 8; ++v) EXPECT_DOUBLE_EQ(bc[v], 0.0);
}

TEST(NaiveBc, CompleteGraphIsZero) {
  for (double score : naive_bc(complete(6))) EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(NaiveBc, DirectedChain) {
  // 0 -> 1 -> 2: only vertex 1 is interior, for exactly one ordered pair.
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}}, true);
  const auto bc = naive_bc(g);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(NaiveBc, SplitParallelPaths) {
  // Diamond 0 -> {1,2} -> 3: two shortest paths, each middle vertex carries
  // half of the single (0, 3) pair.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, true);
  const auto bc = naive_bc(g);
  EXPECT_DOUBLE_EQ(bc[1], 0.5);
  EXPECT_DOUBLE_EQ(bc[2], 0.5);
}

TEST(NaiveBc, RejectsHugeGraphs) {
  EXPECT_THROW(naive_bc(erdos_renyi(5000, 5000, false, 1)), Error);
}

TEST(BrandesBc, MatchesAnalyticShapes) {
  testing::expect_scores_near(naive_bc(path(7)), brandes_bc(path(7)));
  testing::expect_scores_near(naive_bc(star(9)), brandes_bc(star(9)));
  testing::expect_scores_near(naive_bc(cycle(9)), brandes_bc(cycle(9)));
  testing::expect_scores_near(naive_bc(binary_tree(15)), brandes_bc(binary_tree(15)));
}

TEST(BrandesBc, HandlesDisconnectedGraphs) {
  const CsrGraph g =
      CsrGraph::undirected_from_edges(7, {{0, 1}, {1, 2}, {4, 5}, {5, 6}});
  testing::expect_scores_near(naive_bc(g), brandes_bc(g));
}

TEST(BrandesBc, EmptyAndTrivialGraphs) {
  EXPECT_TRUE(brandes_bc(CsrGraph::from_edges(0, {}, false)).empty());
  const auto single = brandes_bc(CsrGraph::from_edges(1, {}, false));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 0.0);
}

TEST(BrandesBc, FromSourcesSubsetAndWeight) {
  const CsrGraph g = path(5);
  const auto full = brandes_bc(g);
  // Summing per-source contributions over all sources reproduces the total.
  std::vector<double> acc(5, 0.0);
  for (Vertex s = 0; s < 5; ++s) {
    const auto partial = brandes_bc_from_sources(g, {s}, 1.0);
    for (Vertex v = 0; v < 5; ++v) acc[v] += partial[v];
  }
  testing::expect_scores_near(full, acc);
  // Weight scales linearly.
  const auto weighted = brandes_bc_from_sources(g, {0}, 3.0);
  const auto unweighted = brandes_bc_from_sources(g, {0}, 1.0);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(weighted[v], 3.0 * unweighted[v]);
  }
}

/// The paper's `preds-serial` baseline, Brandes with predecessor lists
/// run serially: the `preds` kernel on a one-worker scheduler.
std::vector<double> preds_serial_bc(const CsrGraph& g) {
  WorkStealingScheduler serial(SchedulerOptions{.threads = 1});
  return parallel_preds_bc(g, serial);
}

TEST(PredsSerialBc, MatchesSuccessorVariant) {
  for (const CsrGraph& g :
       {path(7), star(9), cycle(9), barbell(5, 2), paper_figure3()}) {
    testing::expect_scores_near(brandes_bc(g), preds_serial_bc(g));
  }
}

class BrandesSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BrandesSweep, MatchesNaiveOracle) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    testing::expect_scores_near(naive_bc(gc.graph), brandes_bc(gc.graph));
  }
}

TEST_P(BrandesSweep, PredsSerialMatchesOracle) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    testing::expect_scores_near(naive_bc(gc.graph), preds_serial_bc(gc.graph));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrandesSweep,
                         ::testing::Values(5, 15, 25, 35, 45, 55, 65, 75));

}  // namespace
}  // namespace apgre
