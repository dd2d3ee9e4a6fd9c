// The core correctness suite: APGRE must reproduce Brandes' exact scores on
// every graph, for every option combination — that is the paper's Theorem
// 1-3 claim, and the property these sweeps exercise.
#include <gtest/gtest.h>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "bc/naive.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

/// A private multi-worker pool, even on 1-core machines.
SchedulerOptions workers(int threads) {
  SchedulerOptions sched;
  sched.threads = threads;
  return sched;
}

BcResult solve(const CsrGraph& g, const ApgreOptions& opts = {},
               const SchedulerOptions& sched = {}) {
  return betweenness(g, {.apgre = opts, .scheduler = sched});
}

std::vector<double> apgre_scores(const CsrGraph& g, const ApgreOptions& opts = {}) {
  return solve(g, opts).scores;
}

void expect_apgre_matches_brandes(const CsrGraph& g, const ApgreOptions& opts = {}) {
  testing::expect_scores_near(brandes_bc(g), apgre_scores(g, opts));
}

TEST(ApgreBc, Shapes) {
  expect_apgre_matches_brandes(path(9));
  expect_apgre_matches_brandes(cycle(11));
  expect_apgre_matches_brandes(star(14));
  expect_apgre_matches_brandes(complete(7));
  expect_apgre_matches_brandes(binary_tree(31));
  expect_apgre_matches_brandes(barbell(6, 3));
}

TEST(ApgreBc, TrivialGraphs) {
  EXPECT_TRUE(apgre_scores(CsrGraph::from_edges(0, {}, false)).empty());
  const auto single = apgre_scores(CsrGraph::from_edges(1, {}, false));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 0.0);
  expect_apgre_matches_brandes(path(2));  // K2: one pendant, one root
  expect_apgre_matches_brandes(path(3));
}

TEST(ApgreBc, PaperFigure3ExactScores) {
  const CsrGraph g = paper_figure3();
  testing::expect_scores_near(naive_bc(g), apgre_scores(g));
  // Decomposition-sensitive: also check with the three blocks kept apart.
  ApgreOptions opts;
  opts.partition.merge_threshold = 3;
  testing::expect_scores_near(naive_bc(g), apgre_scores(g, opts));
}

TEST(ApgreBc, DisconnectedComponents) {
  const CsrGraph g = CsrGraph::undirected_from_edges(
      12, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 5}, {5, 6}, {8, 9}, {9, 10}, {10, 8}, {10, 11}});
  expect_apgre_matches_brandes(g);
}

TEST(ApgreBc, PendantChains) {
  // Chains force the pendant-of-pendant-host interaction: only the tip of
  // each chain is removable.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {5, 7}});
  expect_apgre_matches_brandes(g);
}

TEST(ApgreBc, PendantOnBoundaryArticulationPoint) {
  // Regression shape for the alpha(s) self-term correction (DESIGN.md §2):
  // two triangles joined at an AP that also hosts a pendant.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}, {2, 7}});
  ApgreOptions opts;
  opts.partition.merge_threshold = 2;  // keep the triangles in separate sub-graphs
  testing::expect_scores_near(naive_bc(g), apgre_scores(g, opts));
}

TEST(ApgreBc, DirectedPendantsIntoArticulationPoint) {
  // The paper's total-redundancy setup: in-degree-0 pendants feeding an AP.
  EdgeList edges{{0, 2}, {1, 2},                          // pendants
                 {2, 3}, {3, 2}, {3, 4}, {4, 3}, {4, 2}, {2, 4},  // block
                 {4, 5}, {5, 4}, {5, 6}, {6, 5}, {6, 4}, {4, 6}};
  const CsrGraph g = CsrGraph::from_edges(7, edges, true);
  ApgreOptions opts;
  opts.partition.merge_threshold = 2;
  testing::expect_scores_near(naive_bc(g), apgre_scores(g, opts));
}

TEST(ApgreBc, SubgraphKernelMatchesWholeGraphOnBiconnected) {
  // A biconnected graph decomposes into one sub-graph with no boundary APs
  // and no pendants; the kernel must then equal plain Brandes.
  const CsrGraph g = cycle(12);
  const Decomposition dec = decompose(g);
  ASSERT_EQ(dec.subgraphs.size(), 1u);
  testing::expect_scores_near(brandes_bc(g), apgre_subgraph_bc(dec.subgraphs[0]));
}

// The top block clears the default large-sub-graph cutoff, so on a
// multi-worker pool it splits into root-batch tasks and stays exact.
TEST(ApgreBc, LargeBlockSplitsIntoRootBatches) {
  const CsrGraph g = testing::large_block_graph();
  const BcResult r = solve(g, {}, workers(4));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.apgre_stats.num_batch_tasks, 0u);
  EXPECT_GT(r.apgre_stats.num_subgraph_tasks, 0u);
  EXPECT_EQ(r.apgre_stats.num_fine_subgraphs, 0u);
  testing::expect_scores_near(brandes_bc(g), r.scores);
}

TEST(ApgreBc, StatsAreFilled) {
  const CsrGraph g = attach_pendants(caveman(6, 8, 3), 20, 4);
  const ApgreStats stats = betweenness(g).apgre_stats;
  EXPECT_GT(stats.num_subgraphs, 0u);
  EXPECT_GT(stats.num_articulation_points, 0u);
  EXPECT_EQ(stats.num_pendants_removed, 20u);
  EXPECT_GT(stats.top_arcs, 0u);
  EXPECT_GE(stats.total_seconds,
            stats.partition_seconds);  // total includes all phases
  EXPECT_GE(stats.partial_redundancy, 0.0);
  EXPECT_GT(stats.total_redundancy, 0.0);
}

// One worker still splits the top block, into about four root batches
// run inline in order.
TEST(ApgreBc, ForcedFineGrainedPathStillExact) {
  const CsrGraph g = testing::large_block_graph();
  const BcResult r = solve(g, {}, workers(1));
  EXPECT_GE(r.apgre_stats.num_batch_tasks, 4u);
  testing::expect_scores_near(brandes_bc(g), r.scores);
}

TEST(ApgreBc, GammaDisabledStillExact) {
  ApgreOptions opts;
  opts.partition.total_redundancy = false;
  const CsrGraph g = attach_pendants(barabasi_albert(120, 2, 6), 60, 7);
  expect_apgre_matches_brandes(g, opts);
}

// More workers than cores: small root batches of the top block interleave
// with the small-block tasks.
TEST(ApgreBc, OversubscribedThreadsStillExact) {
  const CsrGraph g = testing::large_block_graph();
  const BcResult r = solve(g, {}, workers(16));
  EXPECT_GT(r.apgre_stats.num_batch_tasks, 0u);
  testing::expect_scores_near(brandes_bc(g), r.scores);
}

// ---- Property sweeps ------------------------------------------------------

class ApgreSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Vertex, bool>> {};

TEST_P(ApgreSweep, MatchesBrandesOnRandomGraphs) {
  const auto [seed, threshold, total_redundancy] = GetParam();
  ApgreOptions opts;
  opts.partition.merge_threshold = threshold;
  opts.partition.total_redundancy = total_redundancy;
  for (const auto& gc : testing::graph_family(seed, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    expect_apgre_matches_brandes(gc.graph, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApgreSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 17, 27, 37),
                       ::testing::Values<Vertex>(2, 8, 64),
                       ::testing::Bool()));

class ApgreReachSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApgreReachSweep, BothReachMethodsExactOnUndirected) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    if (gc.graph.directed()) continue;
    SCOPED_TRACE(gc.name);
    for (ReachMethod method : {ReachMethod::kBfs, ReachMethod::kTreeDp}) {
      ApgreOptions opts;
      opts.partition.reach = method;
      expect_apgre_matches_brandes(gc.graph, opts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApgreReachSweep, ::testing::Values(8, 18, 28));

/// Larger graphs (beyond the naive oracle) against Brandes.
class ApgreLargeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApgreLargeSweep, MatchesBrandesOnMediumGraphs) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/false)) {
    SCOPED_TRACE(gc.name);
    expect_apgre_matches_brandes(gc.graph);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApgreLargeSweep, ::testing::Values(9, 19));

}  // namespace
}  // namespace apgre
