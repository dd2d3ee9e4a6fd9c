// The core correctness suite: APGRE must reproduce Brandes' exact scores on
// every graph, for every option combination — that is the paper's Theorem
// 1-3 claim, and the property these sweeps exercise.
#include <gtest/gtest.h>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "bc/naive.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "support/metrics.hpp"
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
  testing::expect_scores_near(naive_bc(g), apgre_scores(g));
}

TEST(ApgreBc, DirectedPendantsIntoArticulationPoint) {
  // The paper's total-redundancy setup: in-degree-0 pendants feeding an AP.
  EdgeList edges{{0, 2}, {1, 2},                          // pendants
                 {2, 3}, {3, 2}, {3, 4}, {4, 3}, {4, 2}, {2, 4},  // block
                 {4, 5}, {5, 4}, {5, 6}, {6, 5}, {6, 4}, {4, 6}};
  const CsrGraph g = CsrGraph::from_edges(7, edges, true);
  testing::expect_scores_near(naive_bc(g), apgre_scores(g));
}

TEST(ApgreBc, SubgraphKernelMatchesWholeGraphOnBiconnected) {
  // A biconnected graph decomposes into one sub-graph with no boundary APs
  // and no pendants; the scorer must then equal plain Brandes, whether the
  // sub-graph runs as root batches inline (1 worker) or on the pool.
  const CsrGraph g = cycle(12);
  const Decomposition dec = decompose(g);
  ASSERT_EQ(dec.subgraphs.size(), 1u);
  const std::size_t only[] = {0};
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    WorkStealingScheduler scheduler(workers(threads));
    const auto contrib = apgre_subgraph_scores(dec, only, scheduler);
    ASSERT_EQ(contrib.size(), 1u);
    testing::expect_scores_near(brandes_bc(g), contrib[0]);
  }
}

// The top block carries most of the scoring cost, so on a multi-worker
// pool it splits into root-batch tasks and stays exact.
TEST(ApgreBc, LargeBlockSplitsIntoRootBatches) {
  const CsrGraph g = testing::large_block_graph();
  const BcResult r = solve(g, {}, workers(4));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.apgre_stats.num_batch_tasks, 0u);
  EXPECT_GT(r.apgre_stats.num_subgraph_tasks, 0u);
  EXPECT_EQ(r.apgre_stats.num_fine_subgraphs, 0u);
  testing::expect_scores_near(brandes_bc(g), r.scores);
}

// The top block is under 1 << 14 arcs but carries nearly all the scoring
// cost: its share of the cost, not its arc count, splits it into root
// batches, for tracked and untracked solves alike.
TEST(ApgreBc, CostShareSplitsASmallDominantBlock) {
  const CsrGraph g = testing::dominant_block_graph();
  const std::vector<double> expected = brandes_bc(g);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const BcResult r = solve(g, {}, workers(threads));
    ASSERT_TRUE(r.status.ok());
    EXPECT_LT(r.apgre_stats.top_arcs, EdgeId{1} << 14);
    EXPECT_GT(r.apgre_stats.num_batch_tasks, 0u);
    testing::expect_scores_near(expected, r.scores);

    Solver tracked(g);
    tracked.enable_contribution_tracking();
    const BcResult t =
        tracked.solve({.apgre = {}, .scheduler = workers(threads)});
    ASSERT_TRUE(t.status.ok());
    EXPECT_GT(t.apgre_stats.num_batch_tasks, 0u);
    testing::expect_scores_near(expected, t.scores);
  }
}

// A chain of 2,000 triangles, each sharing one vertex with the next: 2,000
// blocks in the 2-core, each its own sub-graph, packed into shared tasks.
TEST(ApgreBc, TriangleChainMatchesBrandes) {
  const Vertex triangles = 2000;
  EdgeList edges;
  for (Vertex t = 0; t < triangles; ++t) {
    const Vertex a = 2 * t;
    edges.insert(edges.end(), {{a, a + 1}, {a + 1, a + 2}, {a, a + 2}});
  }
  const CsrGraph g = CsrGraph::undirected_from_edges(2 * triangles + 1, edges);
  const std::vector<double> expected = brandes_bc(g);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const BcResult r = solve(g, {}, workers(threads));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.apgre_stats.num_subgraphs, triangles);
    EXPECT_EQ(r.apgre_stats.peeled_vertices, 0u);
    EXPECT_LT(r.apgre_stats.sched_tasks, triangles);
    testing::expect_scores_near(expected, r.scores);
  }
}

TEST(ApgreBc, StatsAreFilled) {
  const CsrGraph g = attach_pendants(caveman(6, 8, 3), 20, 4);
  const BcResult r = betweenness(g);
  testing::expect_scores_near(brandes_bc(g), r.scores);
  const ApgreStats& stats = r.apgre_stats;
  // The default solve peels the 20 pendants; each one's derived DAG is
  // total redundancy.
  EXPECT_EQ(stats.peeled_vertices, 20u);
  EXPECT_LT(stats.core_fraction, 1.0);
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

// ---- Scoring kernel --------------------------------------------------------
// The kernel records each vertex's DAG successors in the forward sweep and
// sums over them alone in the backward sweep. These shapes stress what that
// record must leave out (same-level and back arcs) and what it must carry
// (seeds at unreached boundary APs, phantom pendant weights).

// From any root of K_n every arc between two non-root vertices joins one
// BFS level to itself, so only the root's own n - 1 arcs are DAG arcs.
TEST(ApgreKernel, CompleteGraphMatchesNaive) {
  const Vertex n = 12;
  const CsrGraph g = complete(n);
  Counter& traversed = metrics().counter("bc.apgre.traversed_arcs");
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::uint64_t before = traversed.value();
    const BcResult r = solve(g, {}, workers(threads));
    ASSERT_TRUE(r.status.ok());
    testing::expect_scores_near(naive_bc(g), r.scores);
    // Every one of the n roots scans only its own n - 1 arcs: then every
    // vertex is queued and the rest sit on the deepest level.
    EXPECT_EQ(traversed.value() - before, std::uint64_t{n} * (n - 1));
  }
}

// Diagonals put many arcs between vertices of one BFS level or reach a
// vertex by several shortest paths at once.
TEST(ApgreKernel, GridWithDiagonalsMatchesNaive) {
  const CsrGraph g = road_grid(7, 7, 0.5, 0.0, 31);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    testing::expect_scores_near(naive_bc(g), solve(g, {}, workers(threads)).scores);
  }
}

// A directed block with back arcs (3 -> 1 and 1 -> 3 join one level to
// itself from roots 1 and 3): arcs into an earlier level or within one are
// never successors. Boundary AP 2 of block {1, 2, 3} is unreachable from
// roots 1 and 3, so its Phase-0 seed at local id 1 survives the block's
// last sweep. The block and the triangle {4, 5, 6} are cheap next to the
// clique, so they share one task and one scratch, the triangle second: a
// seed the scratch failed to clear would be read as the seed of vertex 5,
// local id 1 there, which root 4 reaches.
TEST(ApgreKernel, DirectedBackArcsAndUnreachableApMatchNaive) {
  EdgeList edges{{2, 1}, {2, 3}, {1, 3}, {3, 1},            // block {1, 2, 3}
                 {4, 5}, {5, 4}, {5, 6}, {6, 5}, {4, 6}, {6, 4}};  // {4, 5, 6}
  const std::vector<Vertex> clique{0, 2, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  for (Vertex u : clique) {
    for (Vertex v : clique) {
      if (u != v) edges.push_back({u, v});
    }
  }
  const CsrGraph g = CsrGraph::from_edges(16, edges, true);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const BcResult r = solve(g, {}, workers(threads));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.apgre_stats.num_subgraphs, 3u);
    testing::expect_scores_near(naive_bc(g), r.scores);
  }

  const Decomposition dec = decompose(g);
  const auto index_of = [&dec](const std::vector<Vertex>& block) {
    for (std::size_t i = 0; i < dec.subgraphs.size(); ++i) {
      if (dec.subgraphs[i].to_global == block) return i;
    }
    return dec.subgraphs.size();
  };
  const std::size_t pair[] = {index_of({1, 2, 3}), index_of({4, 5, 6})};
  ASSERT_LT(pair[0], dec.subgraphs.size());
  ASSERT_LT(pair[1], dec.subgraphs.size());
  WorkStealingScheduler one(workers(1));
  const auto after = apgre_subgraph_scores(dec, pair, one);
  const auto alone = apgre_subgraph_scores(dec, std::span(pair + 1, 1), one);
  EXPECT_EQ(after[1], alone[0]);
}

// The peel hangs trees off the core; their anchors carry pendant_weight,
// which the backward sweep adds at the anchor without any recorded arc.
TEST(ApgreKernel, PeeledAnchorsWithPendantWeightMatchNaive) {
  const CsrGraph g =
      attach_pendants(attach_chains(road_grid(5, 5, 0.3, 0.0, 41), 6, 3, 42), 8, 43);
  const ApgrePreparation prep = prepare_apgre(g, PartitionOptions{});
  double total_weight = 0.0;
  for (const Subgraph& sg : prep.dec.subgraphs) {
    for (double w : sg.pendant_weight) total_weight += w;
  }
  EXPECT_GT(total_weight, 0.0);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const BcResult r = solve(g, {}, workers(threads));
    ASSERT_TRUE(r.status.ok());
    EXPECT_GT(r.apgre_stats.peeled_vertices, 0u);
    testing::expect_scores_near(naive_bc(g), r.scores);
  }
}

// ---- Property sweeps ------------------------------------------------------

/// (seed, salt, total_redundancy): each seed and salt draw their own
/// corpus.
class ApgreSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Vertex, bool>> {};

TEST_P(ApgreSweep, MatchesBrandesOnRandomGraphs) {
  const auto [seed, salt, total_redundancy] = GetParam();
  ApgreOptions opts;
  opts.partition.total_redundancy = total_redundancy;
  for (const auto& gc :
       testing::graph_family(seed * 1000 + salt, /*tiny=*/true)) {
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
